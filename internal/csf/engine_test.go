package csf

import (
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// rawSlice is a random slice with its duplicate coordinates left in, so
// they survive into the engine (which must merge them into leaf value
// ranges).
func rawSlice(seed uint64, dims []int, nnz int) *sptensor.Tensor {
	r := synth.NewRNG(seed)
	x := sptensor.New(dims...)
	coord := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			coord[m] = int32(r.Intn(d))
		}
		x.Append(coord, r.NormFloat64())
	}
	return x
}

// randomSlice is rawSlice coalesced: sorted, no duplicates.
func randomSlice(seed uint64, dims []int, nnz int) *sptensor.Tensor {
	x := rawSlice(seed, dims, nnz)
	x.Coalesce()
	return x
}

func randomFactors(seed uint64, dims []int, k int) []*dense.Matrix {
	r := synth.NewRNG(seed)
	out := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		f := dense.NewMatrix(d, k)
		for i := range f.Data {
			f.Data[i] = r.NormFloat64()
		}
		out[m] = f
	}
	return out
}

func maxAbsDiff(a, b *dense.Matrix) float64 {
	m := 0.0
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// TestEngineMatchesSequential is the property test of the CSF kernels
// against the reference kernel across the shapes the issue calls out:
// empty fibers (rows with no nonzeros), duplicate coordinates, a
// single-row streaming-like mode, and ranks 1 and 64. The engine
// reassociates the per-row sums (fiber tree order instead of entry
// order), so the comparison is tolerance-bounded — the exactness
// guarantee the engine does make, bit-identical output across worker
// counts, is asserted separately below.
func TestEngineMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		nnz  int
		dup  bool
	}{
		{"3way-sparse", []int{12, 30, 25}, 400, false},
		{"3way-dense-rows", []int{4, 9, 7}, 600, false},
		{"3way-duplicates", []int{6, 8, 5}, 500, true},
		{"single-row-mode", []int{1, 40, 30}, 300, false},
		{"short-mode", []int{2, 50, 60}, 800, false},
		{"4way", []int{7, 11, 5, 9}, 500, false},
		{"4way-duplicates", []int{3, 4, 5, 6}, 900, true},
		{"2way", []int{20, 35}, 250, false},
		{"empty", []int{10, 12, 8}, 0, false},
		{"one-nnz", []int{10, 12, 8}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var x *sptensor.Tensor
			if tc.dup {
				x = rawSlice(42, tc.dims, tc.nnz)
			} else {
				x = randomSlice(42, tc.dims, tc.nnz)
			}
			for _, k := range []int{1, 4, 64} {
				factors := randomFactors(99, tc.dims, k)
				eng := NewEngine(3)
				eng.Begin(x)
				for mode := range tc.dims {
					want := dense.NewMatrix(tc.dims[mode], k)
					mttkrp.Sequential(want, x, factors, mode)
					got := dense.NewMatrix(tc.dims[mode], k)
					eng.MTTKRP(got, factors, mode)
					scale := 1.0
					for _, v := range want.Data {
						if a := math.Abs(v); a > scale {
							scale = a
						}
					}
					if d := maxAbsDiff(got, want); d > 1e-12*scale*float64(tc.nnz+1) {
						t.Fatalf("k=%d mode %d: engine differs from Sequential by %g", k, mode, d)
					}
				}
			}
		})
	}
}

// TestEngineWorkerBitIdentity asserts the engine's determinism contract:
// for a fixed slice the output is bit-identical for any worker count —
// the tile decomposition depends only on the tree, and shard merges run
// in tile order. The slice is large enough to produce split roots
// (dims[0]=2 concentrates ~half the nonzeros in each root, far above
// splitThresholdNNZ).
func TestEngineWorkerBitIdentity(t *testing.T) {
	dims := []int{2, 200, 300}
	x := randomSlice(7, dims, 20000)
	factors := randomFactors(8, dims, 9)
	pool := parallel.NewPool(6)
	defer pool.Close()

	ref := make([]*dense.Matrix, len(dims))
	eng1 := NewEngineWithPool(1, pool)
	eng1.Begin(x)
	for mode := range dims {
		ref[mode] = dense.NewMatrix(dims[mode], 9)
		eng1.MTTKRP(ref[mode], factors, mode)
	}
	if st := eng1.TreeStats(0); st.ShardTiles == 0 {
		t.Fatalf("test slice produced no shard tiles (tiles=%d); not exercising the sharded path", st.Tiles)
	}
	for _, workers := range []int{2, 3, 6} {
		eng := NewEngineWithPool(workers, pool)
		eng.Begin(x)
		for mode := range dims {
			got := dense.NewMatrix(dims[mode], 9)
			eng.MTTKRP(got, factors, mode)
			for i, v := range got.Data {
				if v != ref[mode].Data[i] {
					t.Fatalf("workers=%d mode=%d: output differs from 1-worker run at %d (%g ≠ %g)",
						workers, mode, i, v, ref[mode].Data[i])
				}
			}
		}
	}
}

// TestEngineRepeatIdentity: repeated MTTKRP calls on the same built tree
// must be bit-identical (the inner ALS loop relies on pure kernels).
func TestEngineRepeatIdentity(t *testing.T) {
	dims := []int{15, 20, 25}
	x := randomSlice(3, dims, 2000)
	factors := randomFactors(4, dims, 8)
	eng := NewEngine(4)
	eng.Begin(x)
	first := dense.NewMatrix(dims[1], 8)
	eng.MTTKRP(first, factors, 1)
	again := dense.NewMatrix(dims[1], 8)
	for i := 0; i < 3; i++ {
		eng.MTTKRP(again, factors, 1)
		for j, v := range again.Data {
			if v != first.Data[j] {
				t.Fatalf("call %d differs at %d", i, j)
			}
		}
	}
}

// TestEngineZeroAllocSteadyState matches the PR 1 guarantee for the
// coordinate plan: once the engine's buffers have grown to the stream's
// working size, a full slice cycle — Begin, per-mode build, and several
// MTTKRP calls per mode — allocates nothing.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	dims := []int{2, 150, 200} // dims[0]=2 forces the sharded split-root path too
	slices := []*sptensor.Tensor{
		randomSlice(11, dims, 15000),
		randomSlice(12, dims, 14000),
		randomSlice(13, dims, 15000),
	}
	k := 8
	factors := randomFactors(5, dims, k)
	outs := make([]*dense.Matrix, len(dims))
	for m := range dims {
		outs[m] = dense.NewMatrix(dims[m], k)
	}
	pool := parallel.NewPool(2) // ≥ workers, so dispatch never hits the spawn fallback
	defer pool.Close()
	eng := NewEngineWithPool(2, pool)
	cycle := func(x *sptensor.Tensor) {
		eng.Begin(x)
		for m := range dims {
			eng.Build(m)
		}
		for it := 0; it < 2; it++ {
			for m := range dims {
				eng.MTTKRP(outs[m], factors, m)
			}
		}
	}
	// Warm up across all slices so every buffer reaches its high-water
	// mark (per-slice tree sizes differ).
	for _, x := range slices {
		cycle(x)
	}
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		cycle(slices[i%len(slices)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state slice cycle allocates %v times", allocs)
	}
}

// TestEngineLazyBuild: MTTKRP without an explicit Build must build the
// tree on first use and reuse it afterwards.
func TestEngineLazyBuild(t *testing.T) {
	dims := []int{10, 12, 14}
	x := randomSlice(21, dims, 800)
	factors := randomFactors(22, dims, 6)
	eng := NewEngine(2)
	eng.Begin(x)
	if eng.Built(1) {
		t.Fatal("tree reported built before first use")
	}
	out := dense.NewMatrix(dims[1], 6)
	eng.MTTKRP(out, factors, 1)
	if !eng.Built(1) {
		t.Fatal("tree not built after MTTKRP")
	}
	want := dense.NewMatrix(dims[1], 6)
	mttkrp.Sequential(want, x, factors, 1)
	if d := maxAbsDiff(out, want); d > 1e-9 {
		t.Fatalf("lazy-built result differs by %g", d)
	}
}

// TestModeOrder checks the level ordering: root first, then remaining
// modes by increasing length.
func TestModeOrder(t *testing.T) {
	dims := []int{50, 3, 40, 3}
	got := ModeOrder(nil, dims, 2)
	want := []int{2, 1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ModeOrder = %v, want %v", got, want)
		}
	}
	// In-place reuse must not allocate.
	buf := make([]int, 0, 8)
	if n := testing.AllocsPerRun(10, func() { buf = ModeOrder(buf, dims, 0) }); n != 0 {
		t.Fatalf("ModeOrder with capacity allocates %v times", n)
	}
}
