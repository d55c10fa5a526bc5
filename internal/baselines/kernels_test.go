package baselines

import (
	"math"
	"testing"
	"testing/quick"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// kernelSlice builds a deterministic slice, optionally skewed onto the
// first eighth of every mode (duplicate-heavy hot rows: the lock pool's
// contended case).
func kernelSlice(dims []int, nnz int, seed uint64, skew bool) *sptensor.Tensor {
	r := synth.NewRNG(seed)
	x := sptensor.New(dims...)
	coord := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			if skew && r.Intn(3) == 0 {
				d = 1 + d/8
			}
			coord[m] = int32(r.Intn(d))
		}
		x.Append(coord, r.NormFloat64())
	}
	return x
}

func kernelFactors(dims []int, k int, seed uint64) []*dense.Matrix {
	r := synth.NewRNG(seed)
	out := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		out[m] = dense.NewMatrix(d, k)
		for i := range out[m].Data {
			out[m].Data[i] = r.NormFloat64()
		}
	}
	return out
}

// kernelsMatchSequential checks Lock, Hybrid (both of its paths) and
// TimeModeLocked against mttkrp.Sequential and the definition of ψ, at
// one and several workers. The lock kernels add in lock order, so the
// comparison is to rounding, not to the bit.
func kernelsMatchSequential(x *sptensor.Tensor, k int, seed uint64) (string, bool) {
	factors := kernelFactors(x.Dims, k, seed)
	psi := make([]float64, k)
	buf := make([]float64, k)
	for e := 0; e < x.NNZ(); e++ {
		rowProduct(buf, x, factors, -1, e)
		for j, v := range buf {
			psi[j] += v
		}
	}
	for _, workers := range []int{1, 4} {
		c := NewLockKernels(workers)
		for mode, dim := range x.Dims {
			want := dense.NewMatrix(dim, k)
			mttkrp.Sequential(want, x, factors, mode)
			got := dense.NewMatrix(dim, k)
			for name, kernel := range map[string]func(){
				"Lock":            func() { c.Lock(got, x, factors, mode) },
				"Hybrid":          func() { c.Hybrid(got, x, factors, mode) },
				"LocalAccumulate": func() { c.LocalAccumulate(got, x, factors, mode) },
			} {
				got.Fill(9) // every kernel overwrites
				kernel()
				if got.MaxAbsDiff(want) > 1e-9 {
					return name, false
				}
			}
		}
		got := make([]float64, k)
		got[0] = 9
		c.TimeModeLocked(got, x, factors)
		for j := range psi {
			if math.Abs(got[j]-psi[j]) > 1e-9 {
				return "TimeModeLocked", false
			}
		}
	}
	return "", true
}

// The lock-pool, Hybrid Lock and single-lock time-mode kernels against
// the sequential reference, on the random, skewed, degenerate, four-way
// and empty slices the runtime's kernels are checked on
// (mttkrp.TestStreamMatchesPlan). Run under -race in CI: the striped
// locks are all that keeps the row updates apart.
func TestLockKernelsMatchSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    *sptensor.Tensor
	}{
		{"random", kernelSlice([]int{50, 40, 60}, 5000, 1, false)},
		{"skewed", kernelSlice([]int{200, 30, 100}, 8000, 2, true)},
		{"degenerate", kernelSlice([]int{1, 3, 2}, 64, 3, false)},
		{"mode4", kernelSlice([]int{12, 9, 14, 8}, 2000, 4, false)},
		{"longmode", kernelSlice([]int{5000, 10, 10}, 9000, 5, true)}, // Hybrid's lock path
		{"empty", sptensor.New(5, 5, 5)},
	} {
		if kernel, ok := kernelsMatchSequential(tc.x, 4, 9); !ok {
			t.Errorf("%s: %s differs from the sequential reference", tc.name, kernel)
		}
	}
	f := func(seed uint64) bool {
		_, ok := kernelsMatchSequential(kernelSlice([]int{20, 30, 15}, 300, seed, false), 4, seed+1)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridUsesLockPathForLongModes(t *testing.T) {
	dims := []int{5000, 10, 10}
	x := kernelSlice(dims, 500, 9, false)
	factors := kernelFactors(dims, 2, 10)
	c := NewLockKernels(2)
	c.ShortModeThreshold = 100
	want := dense.NewMatrix(5000, 2)
	mttkrp.Sequential(want, x, factors, 0)
	got := dense.NewMatrix(5000, 2)
	c.Hybrid(got, x, factors, 0) // rows > threshold → lock path
	if got.MaxAbsDiff(want) > 1e-9 {
		t.Fatal("hybrid long-mode path wrong")
	}
}

// Mismatched operands panic rather than index out of range on a worker.
func TestLockKernelsCheckShapes(t *testing.T) {
	dims := []int{4, 4}
	x := kernelSlice(dims, 10, 16, false)
	factors := kernelFactors(dims, 2, 17)
	c := NewLockKernels(1)
	for i, fn := range []func(){
		func() { c.Lock(dense.NewMatrix(4, 2), x, factors[:1], 0) },
		func() { c.Hybrid(dense.NewMatrix(4, 2), x, factors, 5) },
		func() { c.Lock(dense.NewMatrix(3, 2), x, factors, 0) },
		func() {
			c.LocalAccumulate(dense.NewMatrix(4, 3), x, []*dense.Matrix{dense.NewMatrix(4, 3), factors[1]}, 0)
		},
		func() { c.TimeModeLocked(make([]float64, 2), x, factors[:1]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkPlanVsLockInnerIters compares one slice's inner loop — the
// MTTKRP over every mode, repeated innerIters times — with the plan
// build amortized over those iterations (exactly how core uses it)
// against the lock-pool and hybrid kernels that re-walk the raw COO
// slice each iteration.
func BenchmarkPlanVsLockInnerIters(b *testing.B) {
	const innerIters = 5
	dims := []int{100, 2000, 300}
	x := kernelSlice(dims, 50000, 31, false)
	factors := kernelFactors(dims, 16, 32)
	outs := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		outs[m] = dense.NewMatrix(d, 16)
	}
	lk, c := NewLockKernels(0), mttkrp.NewComputer(0)
	b.Run("lock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for it := 0; it < innerIters; it++ {
				for mode := range dims {
					lk.Lock(outs[mode], x, factors, mode)
				}
			}
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for it := 0; it < innerIters; it++ {
				for mode := range dims {
					lk.Hybrid(outs[mode], x, factors, mode)
				}
			}
		}
	})
	b.Run("plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan := c.NewPlan(x) // amortized: built once per slice
			for it := 0; it < innerIters; it++ {
				for mode := range dims {
					c.PlanMTTKRP(outs[mode], plan, factors, mode)
				}
			}
		}
	})
	b.Run("plan-steady", func(b *testing.B) {
		plan := c.NewPlan(x) // excluded: pure per-iteration cost
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for it := 0; it < innerIters; it++ {
				for mode := range dims {
					c.PlanMTTKRP(outs[mode], plan, factors, mode)
				}
			}
		}
	})
}
