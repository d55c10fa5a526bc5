package core

import (
	"math"
	"slices"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/dense"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// testStream generates a small planted-structure stream.
func testStream(t testing.TB, seed uint64, dims []int, nnzPerSlice, slices int) *sptensor.Stream {
	t.Helper()
	dists := make([]synth.IndexDist, len(dims))
	for m, d := range dims {
		dists[m] = synth.Uniform{N: d}
	}
	s, err := synth.Generate(synth.Config{
		Name:        "test",
		Dists:       dists,
		T:           slices,
		NNZPerSlice: nnzPerSlice,
		Values:      synth.ValuePlanted,
		PlantedRank: 3,
		NoiseStd:    0.01,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// skewedStream generates a stream with a clustered mode (many zero rows)
// to exercise the nz/z split meaningfully.
func skewedStream(t *testing.T, seed uint64) *sptensor.Stream {
	t.Helper()
	s, err := synth.Generate(synth.Config{
		Name: "skewed",
		Dists: []synth.IndexDist{
			synth.Uniform{N: 25},
			synth.Clustered{N: 400, Window: 30, Drift: 20, Revisit: 0.1},
			synth.NewZipf(60, 1.2),
		},
		T:           6,
		NNZPerSlice: 500,
		Values:      synth.ValuePlanted,
		PlantedRank: 3,
		NoiseStd:    0.01,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runStream(t *testing.T, s *sptensor.Stream, opt Options) (*Decomposer, []SliceResult) {
	t.Helper()
	d, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	results, err := d.ProcessStream(s.Source(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, results
}

// runCycled runs T slices, cycling through s's: a long stream at the
// cost of a short one's inputs.
func runCycled(t *testing.T, s *sptensor.Stream, opt Options, T int) *Decomposer {
	t.Helper()
	d, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < T; ti++ {
		if _, err := d.ProcessSlice(s.Slices[ti%len(s.Slices)]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// runStreamS is runStream that also collects the temporal factor S the
// way a caller does: LastS, copied after every committed slice.
func runStreamS(t *testing.T, s *sptensor.Stream, opt Options) (*Decomposer, *dense.Matrix) {
	t.Helper()
	d, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	if _, err := d.ProcessStream(s.Source(), func(res SliceResult) {
		if !res.Skipped {
			rows = append(rows, slices.Clone(d.LastS()))
		}
	}); err != nil {
		t.Fatal(err)
	}
	return d, dense.FromRows(rows)
}

func maxFactorDiff(a, b *Decomposer) float64 {
	worst := 0.0
	for m := range a.Dims() {
		if d := a.Factor(m).MaxAbsDiff(b.Factor(m)); d > worst {
			worst = d
		}
	}
	return worst
}

// The central correctness property of the reproduction: spCP-stream's
// Gram-form updates produce the same factorization as explicit
// CP-stream.
func TestSpCPMatchesExplicit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream *sptensor.Stream
	}{
		{"uniform", testStream(t, 31, []int{20, 30, 15}, 400, 5)},
		{"skewed", skewedStream(t, 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt, st1 := runStreamS(t, tc.stream, Options{Rank: 4, Algorithm: Optimized, Seed: 5, Workers: 2})
			spc, st2 := runStreamS(t, tc.stream, Options{Rank: 4, Algorithm: SpCPStream, Seed: 5, Workers: 2})
			if d := maxFactorDiff(opt, spc); d > 1e-5 {
				t.Fatalf("spCP vs explicit factors differ by %g", d)
			}
			// Temporal state must match too.
			if d := opt.g.MaxAbsDiff(spc.g); d > 1e-5 {
				t.Fatalf("temporal Gram differs by %g", d)
			}
			if d := st1.MaxAbsDiff(st2); d > 1e-5 {
				t.Fatalf("temporal factors differ by %g", d)
			}
		})
	}
}

// TestExplicitMatchesSpCPOnSkewed is the same property where it matters
// most and to rounding: on a stream that touches a few percent of its
// long mode, the explicit body — every row solved in place — and the
// Gram form, which solves the touched rows and carries the rest as a K×K
// transform, run the same iterations to the same factors.
func TestExplicitMatchesSpCPOnSkewed(t *testing.T) {
	s := remapStream(t, 405, 3)
	for _, normalize := range []bool{false, true} {
		opt := Options{Rank: 4, Seed: 5, Workers: 2, Normalize: normalize, MaxIters: 10, Tol: 1e-300}
		exp, st := runStreamS(t, s, opt)
		opt.Algorithm = SpCPStream
		spc, stSpc := runStreamS(t, s, opt)
		if d := relFactorDiff(exp, spc); d > 1e-10 {
			t.Fatalf("normalize=%v: spCP vs explicit factors differ by %g of the largest entry", normalize, d)
		}
		if d, scale := st.MaxAbsDiff(stSpc), math.Sqrt(dense.FrobNorm2(st)); d > 1e-10*scale {
			t.Fatalf("normalize=%v: temporal factors differ by %g of ‖S‖ = %g", normalize, d, scale)
		}
	}
}

// The trace-form convergence measure (Eqs. 16–17) must equal the
// explicit Frobenius form (Eq. 15) per slice.
func TestTraceDeltaMatchesExplicitDelta(t *testing.T) {
	s := skewedStream(t, 33)
	_, resExp := runStream(t, s, Options{Rank: 4, Algorithm: Optimized, Seed: 9, Workers: 1, MaxIters: 3, Tol: 1e-12})
	_, resSp := runStream(t, s, Options{Rank: 4, Algorithm: SpCPStream, Seed: 9, Workers: 1, MaxIters: 3, Tol: 1e-12})
	for i := range resExp {
		if resExp[i].Iters != resSp[i].Iters {
			t.Fatalf("slice %d: iteration counts differ (%d vs %d)", i, resExp[i].Iters, resSp[i].Iters)
		}
		rel := math.Abs(resExp[i].Delta - resSp[i].Delta)
		if resExp[i].Delta > 0 {
			rel /= resExp[i].Delta
		}
		if rel > 1e-6 {
			t.Fatalf("slice %d: delta %g (explicit) vs %g (trace form)", i, resExp[i].Delta, resSp[i].Delta)
		}
	}
}

func TestFitImprovesOnPlantedData(t *testing.T) {
	// Dense-ish slices (sampling with replacement covers ~85% of a
	// 10×10×10 tensor at 3000 draws), so a rank-6 model of rank-3
	// planted data can reach a high fit. On very sparse slices a
	// low-rank model cannot fit the unsampled zeros and fit is
	// legitimately near 0 — that regime is covered by
	// TestSpCPFitComparableToExplicit instead.
	s := testStream(t, 41, []int{10, 10, 10}, 3000, 6)
	_, res := runStream(t, s, Options{Rank: 6, Algorithm: Optimized, Seed: 3, MaxIters: 30})
	last := res[len(res)-1]
	if math.IsNaN(last.Fit) || last.Fit < 0.5 {
		t.Fatalf("final fit %.3f too low for planted data", last.Fit)
	}
	// And fits should not be wildly worse at the end than the start.
	if res[0].Fit > last.Fit+0.3 {
		t.Fatalf("fit degraded across stream: first %.3f last %.3f", res[0].Fit, last.Fit)
	}
}

func TestSpCPFitComparableToExplicit(t *testing.T) {
	s := skewedStream(t, 42)
	_, resO := runStream(t, s, Options{Rank: 4, Seed: 3})
	_, resS := runStream(t, s, Options{Rank: 4, Algorithm: SpCPStream, Seed: 3})
	for i := range resO {
		if math.Abs(resO[i].Fit-resS[i].Fit) > 1e-3 {
			t.Fatalf("slice %d: fits diverge: %.5f vs %.5f", i, resO[i].Fit, resS[i].Fit)
		}
	}
}

func TestConstrainedNonNegFeasible(t *testing.T) {
	s := testStream(t, 51, []int{15, 20, 10}, 300, 4)
	for _, alg := range []Algorithm{Optimized} {
		d, res := runStream(t, s, Options{Rank: 3, Algorithm: alg, Constraint: admm.NonNeg{}, Seed: 7})
		for m := 0; m < 3; m++ {
			for _, v := range d.Factor(m).Data {
				if v < 0 {
					t.Fatalf("%v: negative factor entry %g", alg, v)
				}
			}
		}
		total := 0
		for _, r := range res {
			total += r.ADMMIters
		}
		if total == 0 {
			t.Fatalf("%v: ADMM never ran", alg)
		}
	}
}

func TestEmptySlices(t *testing.T) {
	dims := []int{10, 12}
	empty := sptensor.New(dims...)
	full := sptensor.New(dims...)
	full.Append([]int32{1, 2}, 1.0)
	full.Append([]int32{3, 4}, 2.0)
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		d, err := NewDecomposer(dims, Options{Rank: 2, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range []*sptensor.Tensor{full, empty, full, empty} {
			if _, err := d.ProcessSlice(x); err != nil {
				t.Fatalf("%v slice %d: %v", alg, i, err)
			}
		}
		for m := range dims {
			if d.Factor(m).HasNaN() {
				t.Fatalf("%v: NaN in factors after empty slices", alg)
			}
		}
		if d.T() != 4 {
			t.Fatalf("T = %d", d.T())
		}
	}
}

func TestNormalizeKeepsEquivalenceAndUnitColumns(t *testing.T) {
	s := skewedStream(t, 61)
	opt, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 2, Normalize: true})
	spc, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 2, Normalize: true})
	if d := maxFactorDiff(opt, spc); d > 1e-5 {
		t.Fatalf("normalized runs differ by %g", d)
	}
	// Columns must have unit norm.
	for m := 0; m < 3; m++ {
		f := opt.Factor(m)
		norms := make([]float64, f.Cols)
		for i := 0; i < f.Rows; i++ {
			row := f.Row(i)
			for j, v := range row {
				norms[j] += v * v
			}
		}
		for j, n2 := range norms {
			if math.Abs(math.Sqrt(n2)-1) > 1e-8 {
				t.Fatalf("mode %d column %d norm %g ≠ 1", m, j, math.Sqrt(n2))
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewDecomposer([]int{10, 10}, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := NewDecomposer([]int{10}, Options{Rank: 2}); err == nil {
		t.Fatal("single mode accepted")
	}
	if _, err := NewDecomposer([]int{10, 0}, Options{Rank: 2}); err == nil {
		t.Fatal("zero-length mode accepted")
	}
	if _, err := NewDecomposer([]int{10, 10}, Options{Rank: 2, Mu: 1.5}); err == nil {
		t.Fatal("µ > 1 accepted")
	}
	if _, err := NewDecomposer([]int{10, 10}, Options{Rank: 2, Algorithm: SpCPStream, Constraint: admm.NonNeg{}}); err == nil {
		t.Fatal("constrained spCP accepted")
	}
	d, err := NewDecomposer([]int{10, 10}, Options{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(nil); err == nil {
		t.Fatal("nil slice accepted")
	}
	bad := sptensor.New(10, 11)
	if _, err := d.ProcessSlice(bad); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	threeWay := sptensor.New(10, 10, 10)
	if _, err := d.ProcessSlice(threeWay); err == nil {
		t.Fatal("wrong mode count accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s := testStream(t, 71, []int{12, 14, 9}, 200, 3)
	a1, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 13, Workers: 1})
	a2, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 13, Workers: 1})
	if d := maxFactorDiff(a1, a2); d != 0 {
		t.Fatalf("same-seed runs differ by %g", d)
	}
}

func TestTemporalAccessors(t *testing.T) {
	s := testStream(t, 81, []int{10, 10}, 100, 4)
	d, st := runStreamS(t, s, Options{Rank: 2})
	if d.T() != 4 {
		t.Fatal("slice count wrong")
	}
	if st.Rows != 4 || st.Cols != 2 {
		t.Fatalf("temporal factor shape %d×%d", st.Rows, st.Cols)
	}
	if len(d.LastS()) != 2 || d.Rank() != 2 || len(d.Dims()) != 2 {
		t.Fatal("accessor shapes wrong")
	}
	if d.Breakdown().Total() <= 0 {
		t.Fatal("no time recorded in breakdown")
	}
	d.ResetBreakdown()
	if d.Breakdown().Total() != 0 {
		t.Fatal("breakdown reset failed")
	}
}

func TestFourWayStream(t *testing.T) {
	s := testStream(t, 91, []int{8, 10, 6, 7}, 300, 4)
	opt, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 4})
	spc, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 4})
	if d := maxFactorDiff(opt, spc); d > 1e-5 {
		t.Fatalf("4-way spCP vs explicit differ by %g", d)
	}
}
