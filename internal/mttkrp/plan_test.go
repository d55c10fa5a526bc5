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

// The tests in this file hold the resident path, a tensor compiled as a
// one-block source with no share limit (Kernel.Compile): the in-memory
// row-order copy of every mode.

// compiled returns a kernel on c compiled over x.
func compiled(t testing.TB, c *Computer, x *sptensor.Tensor) *Kernel {
	t.Helper()
	k := NewKernel(c)
	k.Compile(x)
	return k
}

// mustMTTKRP runs one of k's passes, which fails only on a decode (no
// t.Helper: the allocation tests call it).
func mustMTTKRP(t testing.TB, k *Kernel, out *dense.Matrix, factors []*dense.Matrix, mode int) {
	if err := k.MTTKRP(out, factors, mode); err != nil {
		t.Fatal(err)
	}
}

// The compiled kernel must match Sequential *bit for bit* on random
// slices, across modes, ranks, and worker counts: the stable counting
// sort preserves the original entry order within each output row, and
// each row has exactly one writer.
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
			kern := compiled(t, NewComputerWithPool(workers, pool), x)
			for mode := range dims {
				want := dense.NewMatrix(dims[mode], k)
				Sequential(want, x, factors, mode)
				got := dense.NewMatrix(dims[mode], k)
				mustMTTKRP(t, kern, got, factors, mode)
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
	k := compiled(t, NewComputer(2), x)
	for mode := range dims {
		want := denseReference(t, x, factors, mode)
		got := dense.NewMatrix(dims[mode], 2)
		mustMTTKRP(t, k, got, factors, mode)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("mode %d: compiled MTTKRP off by %g", mode, d)
		}
	}
}

func TestPlanEmptySlice(t *testing.T) {
	dims := []int{5, 5, 5}
	x := randomSlice(7, dims, 0)
	factors := randomFactors(8, dims, 3)
	k := compiled(t, NewComputer(4), x)
	out := dense.NewMatrix(5, 3)
	out.Fill(9)
	mustMTTKRP(t, k, out, factors, 0)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty-slice MTTKRP must zero the output")
		}
	}
}

// The one schedule, on a resident tensor with adversarial skew (one giant
// row): per mode the workers' row ranges are monotone and cover every row
// exactly once — one writer per row — each worker's nonzero count is
// within one row's weight and the snap slack of its quota, and every
// mode's compiled copy is the slice gathered through a stable counting
// sort by that mode's coordinate. Snapping to block edges is
// TestStreamScheduleSnapsToSlabs'.
func TestPlanWorkerPartition(t *testing.T) {
	x := sptensor.New(8, 13, 5)
	for e := 0; e < 1000; e++ {
		i := int32(0)
		if e >= 600 {
			i = int32(1 + e%7)
		}
		x.Append([]int32{i, int32(e * 7 % 13), int32(e % 5)}, float64(e))
	}
	for _, workers := range []int{2, 3, 4} {
		k := compiled(t, NewComputer(workers), x)
		for mode, dim := range x.Dims {
			requireBalancedRows(t, fmt.Sprintf("workers=%d mode %d", workers, mode), x, &k.modes[mode], mode, dim)
			requireStableSortCopies(t, x, k, mode, dim)
		}
	}
}

// requireBalancedRows checks a mode's row ranges against x: boundaries
// from row 0 to dim, monotone, and every worker's share of the nonzeros
// within the heaviest row plus the snap slack of its quota.
func requireBalancedRows(t *testing.T, label string, x *sptensor.Tensor, sm *kernelMode, mode, dim int) {
	t.Helper()
	rows := sm.rows
	active := len(rows) - 1
	if rows[0] != 0 || int(rows[active]) != dim {
		t.Fatalf("%s: row ranges %v do not span [0, %d)", label, rows, dim)
	}
	cum := make([]int, dim+1)
	for _, i := range x.Inds[mode] {
		cum[i+1]++
	}
	heaviest := 0
	for i := range cum[1:] {
		heaviest = max(heaviest, cum[i+1])
		cum[i+1] += cum[i]
	}
	nnz := x.NNZ()
	for w := 1; w <= active; w++ {
		if rows[w] < rows[w-1] {
			t.Fatalf("%s: non-monotone row ranges %v", label, rows)
		}
		// Boundary w lies within a row's weight of its quota mark, and
		// the snap moves it at most a 1/snapShare of a quota further.
		if off := math.Abs(float64(cum[rows[w]]) - float64(w*nnz)/float64(active)); w < active && off > float64(heaviest+nnz/(active*snapShare)) {
			t.Fatalf("%s: boundary %d at row %d holds %d nonzeros below, %g from its quota", label, w, rows[w], cum[rows[w]], off)
		}
	}
}

// requireStableSortCopies checks a compiled tensor's row-order copy of
// mode (its one block's pair) against x gathered through a stable
// counting sort computed here.
func requireStableSortCopies(t *testing.T, x *sptensor.Tensor, k *Kernel, mode, dim int) {
	t.Helper()
	pr := &k.pairs[mode]
	byRow := make([][]int, dim)
	for e, i := range x.Inds[mode] {
		byRow[i] = append(byRow[i], e)
	}
	d, seg := 0, 0
	for i, es := range byRow {
		if len(es) == 0 {
			continue
		}
		if pr.rows[seg] != int32(i) || int(pr.ends[seg]) != d+len(es) {
			t.Fatalf("mode %d: segment %d is row %d ending at %d, want row %d ending at %d", mode, seg, pr.rows[seg], pr.ends[seg], i, d+len(es))
		}
		for _, e := range es {
			if math.Float64bits(pr.x.Vals[d]) != math.Float64bits(x.Vals[e]) {
				t.Fatalf("mode %d: value %d is %v, want entry %d's %v", mode, d, pr.x.Vals[d], e, x.Vals[e])
			}
			for v, col := range x.Inds {
				if v != mode && pr.x.Inds[v][d] != col[e] {
					t.Fatalf("mode %d: mode-%d coordinate %d is %d, want entry %d's %d", mode, v, d, pr.x.Inds[v][d], e, col[e])
				}
			}
			d++
		}
		seg++
	}
	if seg != len(pr.rows) || len(pr.x.Vals) != x.NNZ() {
		t.Fatalf("mode %d: %d segments over %d entries, want %d over %d", mode, len(pr.rows), len(pr.x.Vals), seg, x.NNZ())
	}
}

// One kernel recompiled over slices of different sizes and orders
// allocates nothing once it has seen the largest of each, and compiles
// what a fresh kernel compiles, bit for bit.
func TestPlanRecompileAllocFree(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	c := NewComputerWithPool(2, pool)
	cases := []*sptensor.Tensor{
		randomSlice(1, []int{30, 40, 20}, 2000),
		randomSlice(2, []int{12, 50, 9}, 300),
		randomSlice(3, []int{4, 3, 5, 6}, 200),
		randomSlice(4, []int{30, 40, 20}, 1500),
		randomSlice(5, []int{6, 7, 8}, 0), // every mode empty
	}
	k := NewKernel(c)
	compileAll := func() {
		for _, x := range cases {
			k.Compile(x)
		}
	}
	compileAll()
	if allocs := testing.AllocsPerRun(10, compileAll); allocs != 0 {
		t.Errorf("recompiling a warm kernel: %v allocs per round, want 0", allocs)
	}
	for i, x := range cases {
		k.Compile(x)
		fresh := compiled(t, c, x)
		rank := panelCols + 1
		factors := randomFactors(uint64(i), x.Dims, rank)
		for mode, dim := range x.Dims {
			requireStableSortCopies(t, x, k, mode, dim)
			want, got := dense.NewMatrix(dim, rank), dense.NewMatrix(dim, rank)
			mustMTTKRP(t, fresh, want, factors, mode)
			got.Fill(3)
			mustMTTKRP(t, k, got, factors, mode)
			requireSameMatrix(t, fmt.Sprintf("case %d mode %d", i, mode), got, want)
		}
	}
}

// Steady-state kernels must be allocation-free once the kernel is
// compiled and the scratch arenas are warm — and so is the resident
// path's whole slice step, Compile (the one-block MemBlocks wrap, no
// share limit) followed by a pass. Uses an owned pool larger than the
// worker count so the zero-alloc pool path is taken even on a
// single-core host.
func TestKernelsZeroAllocSteadyState(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	dims := []int{50, 300, 40}
	x := randomSlice(21, dims, 5000)
	factors := randomFactors(22, dims, 8)
	c := NewComputerWithPool(4, pool)
	k := compiled(t, c, x)
	out := dense.NewMatrix(dims[0], 8)
	s := make([]float64, 8)
	// Warm up every kernel once (scratch arenas).
	mustMTTKRP(t, k, out, factors, 0)
	c.TimeMode(s, x, factors)
	cases := map[string]func(){
		"MTTKRP":   func() { mustMTTKRP(t, k, out, factors, 0) },
		"TimeMode": func() { c.TimeMode(s, x, factors) },
		"Compile+MTTKRP": func() {
			k.Compile(x)
			mustMTTKRP(t, k, out, factors, 0)
		},
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
	k := compiled(t, c, x)
	mustMTTKRP(t, k, out, factors, 0)
	if allocs := testing.AllocsPerRun(20, func() { mustMTTKRP(t, k, out, factors, 0) }); allocs != 0 {
		t.Errorf("MTTKRP at K=600: %v allocs per call, want 0", allocs)
	}
	s := make([]float64, 600)
	c.TimeMode(s, x, factors)
	if allocs := testing.AllocsPerRun(20, func() { c.TimeMode(s, x, factors) }); allocs != 0 {
		t.Errorf("TimeMode at K=600: %v allocs per call, want 0", allocs)
	}
}
