package core

import (
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// Rank larger than every mode length: Φ is rank-deficient before the
// ridge, and the solver must remain stable.
func TestRankExceedsModeLengths(t *testing.T) {
	dims := []int{4, 5}
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		d, err := NewDecomposer(dims, Options{Rank: 8, Algorithm: alg, Seed: 2, MaxIters: 5})
		if err != nil {
			t.Fatal(err)
		}
		x := sptensor.New(dims...)
		x.Append([]int32{0, 1}, 1)
		x.Append([]int32{3, 4}, 2)
		x.Append([]int32{2, 0}, -1)
		for i := 0; i < 3; i++ {
			if _, err := d.ProcessSlice(x); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		}
		for m := range dims {
			if d.Factor(m).HasNaN() {
				t.Fatalf("%v: NaN with rank > dims", alg)
			}
		}
	}
}

// More workers than rows, nonzeros, or modes must be harmless.
func TestOversubscribedWorkers(t *testing.T) {
	dims := []int{6, 7}
	d, err := NewDecomposer(dims, Options{Rank: 2, Workers: 64, Seed: 3, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := sptensor.New(dims...)
	x.Append([]int32{1, 1}, 1)
	if _, err := d.ProcessSlice(x); err != nil {
		t.Fatal(err)
	}
}

// SliceResult bookkeeping: NNZ echoes the slice, ADMMIters stays zero
// without a constraint, T increments, Fit is computed.
func TestSliceResultFields(t *testing.T) {
	s := testStream(t, 201, []int{10, 12}, 150, 3)
	d, err := NewDecomposer(s.Dims, Options{Rank: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ProcessSlice(s.Slices[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.NNZ != s.Slices[0].NNZ() {
		t.Fatalf("result bookkeeping wrong: %+v", res)
	}
	if res.ADMMIters != 0 {
		t.Fatal("ADMMIters non-zero without a constraint")
	}
	if math.IsNaN(res.Fit) || math.IsInf(res.Fit, 0) {
		t.Fatalf("Fit = %v, want the slice's fit: it is always computed", res.Fit)
	}
	res2, err := d.ProcessSlice(s.Slices[1])
	if err != nil {
		t.Fatal(err)
	}
	if res2.T != 1 {
		t.Fatalf("second slice T = %d", res2.T)
	}
	if res2.Iters < 1 || res2.Delta < 0 {
		t.Fatalf("implausible iteration stats: %+v", res2)
	}
}

// The fit of an all-empty slice is NaN (no mass), not a crash.
func TestTrackFitEmptySlice(t *testing.T) {
	d, err := NewDecomposer([]int{5, 5}, Options{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ProcessSlice(sptensor.New(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Fit) {
		t.Fatalf("empty-slice fit = %v, want NaN", res.Fit)
	}
}

// A single nonzero per slice (extreme sparsity) through all algorithms.
func TestSingleNonzeroSlices(t *testing.T) {
	dims := []int{50, 60}
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		d, err := NewDecomposer(dims, Options{Rank: 3, Algorithm: alg, Seed: 5, MaxIters: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			x := sptensor.New(dims...)
			x.Append([]int32{int32(i * 7 % 50), int32(i * 11 % 60)}, float64(i+1))
			if _, err := d.ProcessSlice(x); err != nil {
				t.Fatalf("%v slice %d: %v", alg, i, err)
			}
		}
		for m := range dims {
			if d.Factor(m).HasNaN() {
				t.Fatalf("%v: NaN on single-nonzero stream", alg)
			}
		}
	}
}

// The Breakdown must attribute time to the phases each algorithm
// actually exercises.
func TestBreakdownPhaseAttribution(t *testing.T) {
	s := skewedStream(t, 202)
	// Explicit: Historical (full-factor products) must show up.
	dOpt, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 1})
	bdOpt := dOpt.Breakdown()
	if bdOpt.Times[6] <= 0 || bdOpt.Times[4] <= 0 { // Historical, MTTKRP
		t.Fatalf("optimized breakdown missing phases: %v", bdOpt)
	}
	// spCP: Pre (remap) and Post (z materialization) must show up.
	dSp, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 1})
	bdSp := dSp.Breakdown()
	if bdSp.Times[0] <= 0 || bdSp.Times[1] <= 0 {
		t.Fatalf("spCP breakdown missing pre/post: %v", bdSp)
	}
	if bdSp.Iters == 0 || bdOpt.Iters == 0 {
		t.Fatal("iteration counts not recorded")
	}
	// Streamed: the same phases as a resident explicit slice — the
	// schedule compile and warm start in Pre, the streamed kernels in
	// MTTKRP, the fit in Misc.
	dStr, err := NewDecomposer(s.Dims, Options{Rank: 3, Algorithm: Optimized, Seed: 1, MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices {
		src, err := sptensor.SplitBlocks(x, 120)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dStr.ProcessBlockSlice(src); err != nil {
			t.Fatal(err)
		}
	}
	bdStr := dStr.Breakdown()
	for _, p := range []trace.Phase{trace.Pre, trace.Post, trace.MTTKRP, trace.Historical, trace.Misc} {
		if bdStr.Times[p] <= 0 {
			t.Fatalf("streamed breakdown missing phase %v: %v", p, bdStr)
		}
	}
	if bdStr.Iters == 0 {
		t.Fatal("streamed iteration count not recorded")
	}
}

func TestAlgorithmStringNames(t *testing.T) {
	if Optimized.String() != "optimized" || SpCPStream.String() != "spcp-stream" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm should render")
	}
}

func TestFitOf(t *testing.T) {
	s := testStream(t, 204, []int{10, 10}, 500, 3)
	d, _ := runStream(t, s, Options{Rank: 3, Seed: 1})
	// Scoring the last seen slice must match the tracked fit closely.
	fit, err := d.FitOf(s.Slices[2])
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(fit) {
		t.Fatal("FitOf NaN on non-empty slice")
	}
	// Errors on shape mismatches.
	if _, err := d.FitOf(sptensor.New(10, 11)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := d.FitOf(sptensor.New(10, 10, 10)); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	if _, err := d.FitOf(nil); err == nil {
		t.Fatal("nil slice accepted")
	}
}

// Streaming invariants: the temporal Gram G stays symmetric positive
// semidefinite across slices (it is a µ-weighted sum of outer products),
// and tracked fits never exceed 1.
func TestStreamingInvariants(t *testing.T) {
	s := skewedStream(t, 205)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: SpCPStream, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for ti, x := range s.Slices {
		res, err := d.ProcessSlice(x)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(res.Fit) && res.Fit > 1+1e-9 {
			t.Fatalf("slice %d: fit %v > 1", ti, res.Fit)
		}
		g := d.g
		// Symmetry.
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if diff := g.At(i, j) - g.At(j, i); diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("slice %d: G asymmetric", ti)
				}
			}
		}
		// PSD: G + εI must factor.
		if _, err := dense.FactorRidge(g, 1e-9*(1+dense.Trace(g))); err != nil {
			t.Fatalf("slice %d: G not PSD: %v", ti, err)
		}
		// The Gram invariant: d.c[m] equals Gram(d.Factor(m)) at slice ends.
		for m := range s.Dims {
			fresh := dense.NewMatrix(4, 4)
			dense.Gram(fresh, d.Factor(m))
			if fresh.MaxAbsDiff(d.c[m]) > 1e-6*(1+dense.Trace(fresh)) {
				t.Fatalf("slice %d mode %d: cached C drifted from Gram(A)", ti, m)
			}
		}
	}
}
