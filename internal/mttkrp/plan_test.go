package mttkrp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// Plan-based segmented MTTKRP must match Sequential *bit for bit* on
// random slices, across modes, ranks, and worker counts: the stable
// counting sort preserves the original entry order within each output
// row, and each row has exactly one writer.
func TestPlanMTTKRPBitIdenticalToSequential(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	f := func(seed uint64, rankSel uint8, nnzSel uint16) bool {
		dims := []int{17, 41, 9}
		k := 1 + int(rankSel%7)
		nnz := 1 + int(nnzSel%800)
		x := randomSlice(seed, dims, nnz)
		factors := randomFactors(seed+1, dims, k)
		for _, workers := range []int{1, 2, 4} {
			c := NewComputerWithPool(workers, pool)
			plan := c.NewPlan(x)
			for mode := range dims {
				want := dense.NewMatrix(dims[mode], k)
				Sequential(want, x, factors, mode)
				got := dense.NewMatrix(dims[mode], k)
				c.PlanMTTKRP(got, plan, factors, mode)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanMTTKRPFourWay(t *testing.T) {
	dims := []int{4, 3, 5, 2}
	x := randomSlice(3, dims, 60)
	factors := randomFactors(4, dims, 2)
	c := NewComputer(2)
	plan := c.NewPlan(x)
	for mode := range dims {
		want := denseReference(t, x, factors, mode)
		got := dense.NewMatrix(dims[mode], 2)
		c.PlanMTTKRP(got, plan, factors, mode)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("mode %d: plan MTTKRP off by %g", mode, d)
		}
	}
}

func TestPlanEmptySlice(t *testing.T) {
	dims := []int{5, 5, 5}
	x := randomSlice(7, dims, 0)
	factors := randomFactors(8, dims, 3)
	c := NewComputer(4)
	plan := c.NewPlan(x)
	out := dense.NewMatrix(5, 3)
	out.Fill(9)
	c.PlanMTTKRP(out, plan, factors, 0)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty-slice plan MTTKRP must zero the output")
		}
	}
}

// The plan partition must cover every segment exactly once, with
// monotone per-worker boundaries, for adversarial skew (one giant row),
// and every mode's compiled copies must be the slice gathered through a
// stable counting sort by that mode's coordinate.
func TestPlanWorkerPartition(t *testing.T) {
	x := sptensor.New(8, 13, 5)
	for e := 0; e < 1000; e++ {
		i := int32(0)
		if e >= 600 {
			i = int32(1 + e%7)
		}
		x.Append([]int32{i, int32(e * 7 % 13), int32(e % 5)}, float64(e))
	}
	plan := NewComputer(4).NewPlan(x)
	for mode, dim := range x.Dims {
		pm := &plan.modes[mode]
		if pm.workerSeg[0] != 0 || int(pm.workerSeg[pm.active]) != len(pm.rows) {
			t.Fatalf("mode %d: partition endpoints wrong: %v over %d segments", mode, pm.workerSeg, len(pm.rows))
		}
		for w := 1; w <= pm.active; w++ {
			if pm.workerSeg[w] < pm.workerSeg[w-1] {
				t.Fatalf("mode %d: non-monotone partition %v", mode, pm.workerSeg)
			}
		}
		requireStableSortCopies(t, x, plan, mode, dim)
	}
}

// requireStableSortCopies checks plan's compiled layout of mode against
// x gathered through a stable counting sort computed here.
func requireStableSortCopies(t *testing.T, x *sptensor.Tensor, plan *Plan, mode, dim int) {
	t.Helper()
	pm := &plan.modes[mode]
	byRow := make([][]int, dim)
	for e, i := range x.Inds[mode] {
		byRow[i] = append(byRow[i], e)
	}
	d, seg := 0, 0
	for i, es := range byRow {
		if len(es) == 0 {
			continue
		}
		if pm.rows[seg] != int32(i) || int(pm.segPtr[seg]) != d {
			t.Fatalf("mode %d: segment %d is row %d at %d, want row %d at %d", mode, seg, pm.rows[seg], pm.segPtr[seg], i, d)
		}
		for _, e := range es {
			if math.Float64bits(pm.x.Vals[d]) != math.Float64bits(x.Vals[e]) {
				t.Fatalf("mode %d: value %d is %v, want entry %d's %v", mode, d, pm.x.Vals[d], e, x.Vals[e])
			}
			for v, col := range x.Inds {
				if v != mode && pm.x.Inds[v][d] != col[e] {
					t.Fatalf("mode %d: mode-%d coordinate %d is %d, want entry %d's %d", mode, v, d, pm.x.Inds[v][d], e, col[e])
				}
			}
			d++
		}
		seg++
	}
	if seg != len(pm.rows) || int(pm.segPtr[seg]) != x.NNZ() || len(pm.x.Vals) != x.NNZ() {
		t.Fatalf("mode %d: %d segments over %d entries, want %d over %d", mode, len(pm.rows), len(pm.x.Vals), seg, x.NNZ())
	}
}

// One Plan recompiled over slices of different sizes and orders, and
// with a mode left out, allocates nothing once it has seen the largest
// of each, and compiles what a fresh NewPlanFor compiles, bit for bit.
func TestPlanRecompileAllocFree(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	c := NewComputerWithPool(2, pool)
	cases := []struct {
		x    *sptensor.Tensor
		need []bool
	}{
		{randomSlice(1, []int{30, 40, 20}, 2000), nil},
		{randomSlice(2, []int{12, 50, 9}, 300), nil},
		{randomSlice(3, []int{4, 3, 5, 6}, 200), nil},
		{randomSlice(4, []int{30, 40, 20}, 1500), []bool{true, false, true}},
		{randomSlice(5, []int{6, 7, 8}, 0), nil}, // every mode empty
	}
	plan := c.NewPlan(cases[0].x)
	compileAll := func() {
		for _, tc := range cases {
			c.CompilePlan(plan, tc.x, tc.need)
		}
	}
	compileAll()
	if allocs := testing.AllocsPerRun(10, compileAll); allocs != 0 {
		t.Errorf("recompiling a warm plan: %v allocs per round, want 0", allocs)
	}
	for i, tc := range cases {
		c.CompilePlan(plan, tc.x, tc.need)
		fresh := c.NewPlanFor(tc.x, tc.need)
		k := panelCols + 1
		factors := randomFactors(uint64(i), tc.x.Dims, k)
		for mode, dim := range tc.x.Dims {
			if tc.need != nil && !tc.need[mode] {
				if plan.modes[mode].built {
					t.Fatalf("case %d: mode %d compiled against the need mask", i, mode)
				}
				continue
			}
			requireStableSortCopies(t, tc.x, plan, mode, dim)
			want, got := dense.NewMatrix(dim, k), dense.NewMatrix(dim, k)
			c.PlanMTTKRP(want, fresh, factors, mode)
			got.Fill(3)
			c.PlanMTTKRP(got, plan, factors, mode)
			requireSameMatrix(t, fmt.Sprintf("case %d mode %d", i, mode), got, want)
		}
	}
}

// Steady-state kernels must be allocation-free once the plan is built
// and the scratch arenas are warm. Uses an owned pool larger than the
// worker count so the zero-alloc pool path is taken even on a
// single-core host.
func TestKernelsZeroAllocSteadyState(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	dims := []int{50, 300, 40}
	x := randomSlice(21, dims, 5000)
	factors := randomFactors(22, dims, 8)
	c := NewComputerWithPool(4, pool)
	plan := c.NewPlan(x)
	out := dense.NewMatrix(dims[0], 8)
	s := make([]float64, 8)
	// Warm up every kernel once (scratch arenas).
	c.PlanMTTKRP(out, plan, factors, 0)
	c.TimeMode(s, x, factors)
	cases := map[string]func(){
		"PlanMTTKRP": func() { c.PlanMTTKRP(out, plan, factors, 0) },
		"TimeMode":   func() { c.TimeMode(s, x, factors) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state call, want 0", name, allocs)
		}
	}
}

// The scratch-row kernels (N ≠ 3) take their rank-sized product row from
// the per-worker arenas at any rank — K > 512 used to heap-allocate one
// per chunk.
func TestKernelsZeroAllocLargeRank(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	dims := []int{30, 20, 10, 6}
	x := randomSlice(23, dims, 2000)
	factors := randomFactors(24, dims, 600) // K > 512
	c := NewComputerWithPool(2, pool)
	out := dense.NewMatrix(dims[0], 600)
	plan := c.NewPlan(x)
	c.PlanMTTKRP(out, plan, factors, 0)
	if allocs := testing.AllocsPerRun(20, func() { c.PlanMTTKRP(out, plan, factors, 0) }); allocs != 0 {
		t.Errorf("PlanMTTKRP at K=600: %v allocs per call, want 0", allocs)
	}
	s := make([]float64, 600)
	c.TimeMode(s, x, factors)
	if allocs := testing.AllocsPerRun(20, func() { c.TimeMode(s, x, factors) }); allocs != 0 {
		t.Errorf("TimeMode at K=600: %v allocs per call, want 0", allocs)
	}
}
