package mttkrp

import (
	"math"
	"testing"
	"testing/quick"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// randomSlice builds a random 3-way slice with the given dims and nnz.
func randomSlice(seed uint64, dims []int, nnz int) *sptensor.Tensor {
	r := synth.NewRNG(seed)
	x := sptensor.New(dims...)
	coord := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			coord[m] = int32(r.Intn(d))
		}
		x.Append(coord, r.NormFloat64())
	}
	x.Coalesce()
	return x
}

// randomFactors builds random In×K factors for every mode.
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

// denseReference computes MTTKRP via the textbook definition
// X₍ₙ₎ · (⊙_{v≠n} A⁽ᵛ⁾) on the dense matricization.
func denseReference(t *testing.T, x *sptensor.Tensor, factors []*dense.Matrix, mode int) *dense.Matrix {
	t.Helper()
	xm, err := sptensor.Matricize(x, mode)
	if err != nil {
		t.Fatal(err)
	}
	others := make([]*dense.Matrix, 0, len(factors)-1)
	for v, f := range factors {
		if v != mode {
			others = append(others, f)
		}
	}
	kr := dense.KhatriRaoAll(others)
	out := dense.NewMatrix(x.Dims[mode], factors[0].Cols)
	dense.MulAB(out, xm, kr)
	return out
}

func TestSequentialAgainstDenseDefinition(t *testing.T) {
	dims := []int{5, 6, 4}
	x := randomSlice(1, dims, 40)
	factors := randomFactors(2, dims, 3)
	for mode := range dims {
		want := denseReference(t, x, factors, mode)
		got := dense.NewMatrix(dims[mode], 3)
		Sequential(got, x, factors, mode)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("mode %d: sequential MTTKRP differs from dense definition by %g", mode, d)
		}
	}
}

func TestSequentialFourWay(t *testing.T) {
	dims := []int{4, 3, 5, 2}
	x := randomSlice(3, dims, 60)
	factors := randomFactors(4, dims, 2)
	for mode := range dims {
		want := denseReference(t, x, factors, mode)
		got := dense.NewMatrix(dims[mode], 2)
		Sequential(got, x, factors, mode)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("mode %d: 4-way MTTKRP off by %g", mode, d)
		}
	}
}

// The parallel kernel must agree with the sequential reference on
// random slices bit for bit, compiled over the slice and begun over its
// blocks, at any worker count. (The lock-pool and Hybrid Lock kernels are checked
// against Sequential in internal/baselines.)
func TestKernelEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		dims := []int{20, 30, 15}
		x := randomSlice(seed, dims, 300)
		factors := randomFactors(seed+1, dims, 4)
		src, err := sptensor.SplitBlocks(x, 64)
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 4} {
			c := NewComputer(workers)
			plan, kern := compiled(t, c, x), NewKernel(c)
			if kern.Begin(src) != nil {
				return false
			}
			for mode := range dims {
				want := dense.NewMatrix(dims[mode], 4)
				Sequential(want, x, factors, mode)
				got := dense.NewMatrix(dims[mode], 4)
				if plan.MTTKRP(got, factors, mode) != nil || got.MaxAbsDiff(want) != 0 {
					return false
				}
				got.Fill(9)
				if kern.MTTKRP(got, factors, mode) != nil || got.MaxAbsDiff(want) != 0 {
					return false
				}
			}
			kern.End()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeModeAgainstDefinition(t *testing.T) {
	dims := []int{6, 7, 5}
	x := randomSlice(11, dims, 100)
	factors := randomFactors(12, dims, 3)
	// ψ[k] = Σ_e val_e ∏_v A⁽ᵛ⁾[i_v][k].
	want := make([]float64, 3)
	for e := 0; e < x.NNZ(); e++ {
		for k := 0; k < 3; k++ {
			p := x.Vals[e]
			for v, f := range factors {
				p *= f.At(int(x.Inds[v][e]), k)
			}
			want[k] += p
		}
	}
	for _, workers := range []int{1, 4} {
		c := NewComputer(workers)
		got := make([]float64, 3)
		c.TimeMode(got, x, factors)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("workers=%d: TimeMode[%d]=%v want %v", workers, k, got[k], want[k])
			}
		}
	}
}

func TestTimeModeDeterministic(t *testing.T) {
	dims := []int{10, 10, 10}
	x := randomSlice(13, dims, 5000)
	factors := randomFactors(14, dims, 4)
	c := NewComputer(4)
	first := make([]float64, 4)
	c.TimeMode(first, x, factors)
	for trial := 0; trial < 5; trial++ {
		again := make([]float64, 4)
		c.TimeMode(again, x, factors)
		for k := range first {
			if first[k] != again[k] {
				t.Fatal("TimeMode not deterministic for fixed worker count")
			}
		}
	}
}

func TestEmptySlice(t *testing.T) {
	dims := []int{5, 5, 5}
	x := sptensor.New(dims...)
	factors := randomFactors(15, dims, 3)
	c := NewComputer(4)
	out := dense.NewMatrix(5, 3)
	out.Fill(9)
	mustMTTKRP(t, compiled(t, c, x), out, factors, 0)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty-slice MTTKRP must zero the output")
		}
	}
	s := make([]float64, 3)
	s[0] = 5
	c.TimeMode(s, x, factors)
	if s[0] != 0 {
		t.Fatal("empty-slice TimeMode must zero the output")
	}
}

func TestCheckArgsPanics(t *testing.T) {
	dims := []int{4, 4}
	x := randomSlice(16, dims, 10)
	factors := randomFactors(17, dims, 2)
	cases := []func(){
		func() { Sequential(dense.NewMatrix(4, 2), x, factors[:1], 0) }, // factor count
		func() { Sequential(dense.NewMatrix(4, 2), x, factors, 5) },     // mode range
		func() { Sequential(dense.NewMatrix(3, 2), x, factors, 0) },     // out shape
		func() { // rank mismatch
			bad := []*dense.Matrix{dense.NewMatrix(4, 3), factors[1]}
			Sequential(dense.NewMatrix(4, 3), x, bad, 0)
		},
	}
	for i, fn := range cases {
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
