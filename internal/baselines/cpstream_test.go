package baselines

import (
	"fmt"
	"math"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/core"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
	"spstream/internal/trace"
)

// plantedStream generates a small planted-structure stream (the
// generator internal/core's tests use).
func plantedStream(t testing.TB, seed uint64, dims []int, nnzPerSlice, slices int) *sptensor.Stream {
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

// runBoth pushes the stream through the baseline and through the
// runtime's Optimized algorithm with the same options, and returns both
// with their per-slice results.
func runBoth(t *testing.T, s *sptensor.Stream, opt core.Options) (*CPStream, *core.Decomposer, []core.SliceResult, []core.SliceResult) {
	t.Helper()
	base, err := NewCPStream(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = core.Optimized
	dec, err := core.NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var resB, resO []core.SliceResult
	for ti, x := range s.Slices {
		rb, err := base.ProcessSlice(x)
		if err != nil {
			t.Fatalf("baseline slice %d: %v", ti, err)
		}
		ro, err := dec.ProcessSlice(x)
		if err != nil {
			t.Fatalf("optimized slice %d: %v", ti, err)
		}
		resB, resO = append(resB, rb), append(resO, ro)
	}
	return base, dec, resB, resO
}

func maxFactorDiff(b *CPStream, d *core.Decomposer) float64 {
	worst := 0.0
	for m := range b.dims {
		worst = math.Max(worst, b.Factor(m).MaxAbsDiff(d.Factor(m)))
	}
	return worst
}

// equivalenceStreams are the fixed stream the test has always used plus
// seeded generated ones over two-, three- and four-mode slices.
func equivalenceStreams(t *testing.T, fixedSeed uint64, fixedDims []int, nnz, slices int) map[string]*sptensor.Stream {
	out := map[string]*sptensor.Stream{"fixed": plantedStream(t, fixedSeed, fixedDims, nnz, slices)}
	for i, dims := range [][]int{{40, 25}, {18, 24, 12}, {9, 8, 7, 6}} {
		for seed := uint64(1); seed <= 2; seed++ {
			out[fmt.Sprintf("%d-mode/seed%d", len(dims), seed)] = plantedStream(t, 100*uint64(i)+seed, dims, nnz, slices)
		}
	}
	return out
}

// The baseline and the runtime's Optimized run the same Algorithm 1 with
// different kernels and share no driver code; from the same seed their
// factor trajectories must agree to lock-ordering FP noise, slice for
// slice.
func TestBaselineOptimizedEquivalence(t *testing.T) {
	for name, s := range equivalenceStreams(t, 21, []int{20, 30, 15}, 400, 5) {
		base, dec, resB, resO := runBoth(t, s, core.Options{Rank: 4, Seed: 5, Workers: 2, TrackFit: true})
		if d := maxFactorDiff(base, dec); d > 1e-6 {
			t.Errorf("%s: baseline vs optimized factors differ by %g", name, d)
		}
		for m, v := range base.LastS() {
			if math.Abs(v-dec.LastS()[m]) > 1e-6 {
				t.Errorf("%s: sₜ[%d] %g vs %g", name, m, v, dec.LastS()[m])
			}
		}
		for i := range resB {
			if math.Abs(resB[i].Delta-resO[i].Delta) > 1e-6 || math.Abs(resB[i].Fit-resO[i].Fit) > 1e-6 ||
				resB[i].Iters != resO[i].Iters || resB[i].Converged != resO[i].Converged {
				t.Errorf("%s slice %d: baseline %+v, optimized %+v", name, i, resB[i], resO[i])
			}
		}
		if base.T() != s.T() {
			t.Errorf("%s: T = %d after %d slices", name, base.T(), s.T())
		}
	}
}

// Algorithm 2 and Blocked & Fused ADMM follow the same iterate sequence
// (the fused variant ends half a step ahead), so with a tight inner
// tolerance the constrained trajectories stay close, and feasible.
func TestConstrainedBaselineOptimizedClose(t *testing.T) {
	for name, s := range equivalenceStreams(t, 52, []int{15, 20, 10}, 300, 4) {
		base, dec, resB, _ := runBoth(t, s, core.Options{
			Rank: 3, Constraint: admm.NonNeg{}, Seed: 7, ADMMTol: 1e-8, ADMMMaxIters: 200,
		})
		if d := maxFactorDiff(base, dec); d > 1e-2 {
			t.Errorf("%s: constrained baseline vs optimized differ by %g", name, d)
		}
		total := 0
		for _, r := range resB {
			total += r.ADMMIters
		}
		if total == 0 {
			t.Errorf("%s: ADMM never ran", name)
		}
		for m := range s.Dims {
			for _, v := range base.Factor(m).Data {
				if v < 0 {
					t.Fatalf("%s: negative factor entry %g", name, v)
				}
			}
		}
	}
}

// The Baseline row of core's golden table, moved here with its three
// strings unchanged: the stand-alone runner is still Algorithm 1.
func TestCPStreamGoldenTrajectory(t *testing.T) {
	want := []string{"fit=0.6695 iters=20", "fit=0.5551 iters=20", "fit=0.5442 iters=20"}
	s := plantedStream(t, 777, []int{8, 9, 7}, 1500, 3)
	b, err := NewCPStream(s.Dims, core.Options{Rank: 4, Seed: 11, Workers: 1, TrackFit: true})
	if err != nil {
		t.Fatal(err)
	}
	for ti, x := range s.Slices {
		res, err := b.ProcessSlice(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("fit=%.4f iters=%d", math.Round(res.Fit*1e4)/1e4, res.Iters); got != want[ti] {
			t.Fatalf("slice %d: got %q want %q", ti, got, want[ti])
		}
	}
}

// Empty and single-nonzero slices (extreme sparsity) leave a finite
// model and an untracked fit.
func TestCPStreamDegenerateSlices(t *testing.T) {
	dims := []int{10, 12}
	empty := sptensor.New(dims...)
	b, err := NewCPStream(dims, core.Options{Rank: 2, MaxIters: 4, TrackFit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		x := empty
		if i%2 == 0 {
			x = sptensor.New(dims...)
			x.Append([]int32{int32(i * 7 % 10), int32(i * 5 % 12)}, float64(i+1))
		}
		res, err := b.ProcessSlice(x)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if x == empty && !math.IsNaN(res.Fit) {
			t.Fatalf("empty-slice fit = %v, want NaN", res.Fit)
		}
		if res.T != i || res.NNZ != x.NNZ() {
			t.Fatalf("slice %d: result %+v", i, res)
		}
	}
	for m := range dims {
		if b.Factor(m).HasNaN() {
			t.Fatal("NaN in factors after degenerate slices")
		}
	}
}

func TestCPStreamValidationAndBreakdown(t *testing.T) {
	if _, err := NewCPStream([]int{5, 5}, core.Options{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := NewCPStream([]int{5}, core.Options{Rank: 2}); err == nil {
		t.Fatal("one-mode slices accepted")
	}
	if _, err := NewCPStream([]int{5, 5}, core.Options{Rank: 2, Normalize: true}); err == nil {
		t.Fatal("Normalize accepted")
	}
	s := plantedStream(t, 3, []int{6, 7, 5}, 100, 1)
	b, err := NewCPStream(s.Dims, core.Options{Rank: 2, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessSlice(nil); err == nil {
		t.Fatal("nil slice accepted")
	}
	if _, err := b.ProcessSlice(sptensor.New(6, 7)); err == nil {
		t.Fatal("slice of the wrong shape accepted")
	}
	if _, err := b.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	bd := b.Breakdown()
	if bd.Iters == 0 || bd.Total() <= 0 {
		t.Fatalf("no breakdown recorded: %v", bd)
	}
	for _, ph := range []trace.Phase{trace.Pre, trace.MTTKRP, trace.Historical, trace.Update, trace.Gram, trace.Inverse} {
		if bd.Times[ph] <= 0 {
			t.Errorf("phase %v has no time attributed", ph)
		}
	}
}
