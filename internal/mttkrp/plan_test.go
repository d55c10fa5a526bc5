package mttkrp

import (
	"testing"
	"testing/quick"

	"spstream/internal/dense"
	"spstream/internal/parallel"
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
// monotone per-worker boundaries, for adversarial skew (one giant row).
func TestPlanWorkerPartition(t *testing.T) {
	col := make([]int32, 1000)
	for i := 600; i < 1000; i++ {
		col[i] = int32(1 + i%7)
	}
	pm := buildPlanMode(col, 8, len(col), 4)
	if pm.workerSeg[0] != 0 || int(pm.workerSeg[pm.active]) != len(pm.rows) {
		t.Fatalf("partition endpoints wrong: %v over %d segments", pm.workerSeg, len(pm.rows))
	}
	for w := 1; w <= pm.active; w++ {
		if pm.workerSeg[w] < pm.workerSeg[w-1] {
			t.Fatalf("non-monotone partition %v", pm.workerSeg)
		}
	}
	// Permutation must be a bijection on [0, nnz).
	seen := make([]bool, len(col))
	for _, e := range pm.perm {
		if seen[e] {
			t.Fatalf("index %d permuted twice", e)
		}
		seen[e] = true
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
