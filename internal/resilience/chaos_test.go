package resilience_test

// Chaos tests: a corrupted 40-slice stream must survive end to end
// under the SkipSlice policy, with every fault class — NaN-poisoned
// values, an out-of-range coordinate that panics inside a parallel
// kernel, and a forced non-SPD factorization — either recovered or
// cleanly skipped, and the surviving fit within tolerance of a clean
// run. These live outside package resilience (which must not import
// core) and drive the real decomposer.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/resilience/faultinject"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

const chaosSlices = 40

func chaosStream(t *testing.T, seed uint64) *sptensor.Stream {
	t.Helper()
	s, err := synth.Generate(synth.Config{
		Name:        "chaos",
		Dists:       []synth.IndexDist{synth.Uniform{N: 30}, synth.Uniform{N: 40}},
		T:           chaosSlices,
		NNZPerSlice: 400,
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

func cloneStream(s *sptensor.Stream) *sptensor.Stream {
	out := &sptensor.Stream{Dims: append([]int(nil), s.Dims...)}
	for _, x := range s.Slices {
		out.Slices = append(out.Slices, x.Clone())
	}
	return out
}

func meanFit(results []core.SliceResult) float64 {
	sum, n := 0.0, 0
	for _, r := range results {
		if !r.Skipped && !math.IsNaN(r.Fit) {
			sum += r.Fit
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func newChaosDecomposer(t *testing.T, dims []int, cfg *resilience.Config) *core.Decomposer {
	t.Helper()
	d, err := core.NewDecomposer(dims, core.Options{
		Rank:       4,
		Workers:    4,
		Seed:       11,
		Resilience: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestChaosStreamSurvives is the headline acceptance scenario: NaN
// slices, a corrupt coordinate (a genuine kernel panic in a pool
// worker), and a forced ErrNotSPD, processed with the input scan
// disabled so every fault reaches the hard recovery paths.
func TestChaosStreamSurvives(t *testing.T) {
	clean := chaosStream(t, 42)
	dirty := cloneStream(clean)
	inj := faultinject.New(99)
	// Three NaN-poisoned slices and one slice whose coordinate is out
	// of range (panics inside the MTTKRP kernel).
	nanSlices := []int{5, 17, 29}
	for _, i := range nanSlices {
		inj.CorruptValues(dirty.Slices[i], 3)
	}
	if !inj.CorruptCoord(dirty.Slices[11]) {
		t.Fatal("coordinate corruption did not apply")
	}
	// One forced non-SPD factorization early, before any skip shifts
	// the slice counter; the Gram is actually fine, so the ridge ladder
	// must rescue it and the slice must succeed.
	plan := faultinject.Plan{NotSPD: map[int]int{2: 1}}

	cfg := &resilience.Config{
		Policy:           resilience.SkipSlice,
		DisableInputScan: true,
		FaultHook:        plan.Hook(),
	}
	d := newChaosDecomposer(t, dirty.Dims, cfg)
	results, err := d.ProcessStreamContext(context.Background(), dirty.Source(), nil)
	if err != nil {
		t.Fatalf("chaos stream died: %v", err)
	}
	if len(results) != chaosSlices {
		t.Fatalf("got %d results, want %d", len(results), chaosSlices)
	}
	skipped := 0
	for _, r := range results {
		if r.Skipped {
			skipped++
		}
	}
	if want := len(nanSlices) + 1; skipped != want {
		t.Errorf("skipped %d slices, want %d", skipped, want)
	}
	st := d.ResilienceStats()
	if st.SlicesSkipped != skipped {
		t.Errorf("stats.SlicesSkipped = %d, want %d", st.SlicesSkipped, skipped)
	}
	if st.PanicsRecovered == 0 {
		t.Error("no panics recovered; the corrupt coordinate should panic a kernel")
	}
	if st.RidgeRecoveries == 0 {
		t.Error("no ridge recoveries; the forced non-SPD should be rescued")
	}
	if st.Rollbacks < skipped {
		t.Errorf("rollbacks %d < skips %d", st.Rollbacks, skipped)
	}
	if st.SliceRetries == 0 {
		t.Error("no slice retries recorded")
	}

	// The surviving slices must still track the planted model: mean fit
	// within tolerance of an identical decomposer run on the clean
	// stream.
	dClean := newChaosDecomposer(t, clean.Dims, nil)
	cleanResults, err := dClean.ProcessStream(clean.Source(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fitChaos, fitClean := meanFit(results), meanFit(cleanResults)
	if math.IsNaN(fitChaos) || math.Abs(fitChaos-fitClean) > 0.15 {
		t.Errorf("chaos mean fit %.4f vs clean %.4f (tolerance 0.15)", fitChaos, fitClean)
	}
	if d.T() != chaosSlices-skipped {
		t.Errorf("slice counter %d, want %d processed", d.T(), chaosSlices-skipped)
	}
}

// TestChaosInputScanRejects runs the same corruptions with the input
// scan on: every poisoned slice is rejected before touching the
// kernels, with no rollbacks or panics needed.
func TestChaosInputScanRejects(t *testing.T) {
	dirty := cloneStream(chaosStream(t, 42))
	inj := faultinject.New(99)
	inj.CorruptValues(dirty.Slices[5], 3)
	inj.CorruptCoord(dirty.Slices[11])

	d := newChaosDecomposer(t, dirty.Dims, &resilience.Config{Policy: resilience.SkipSlice})
	results, err := d.ProcessStreamContext(context.Background(), dirty.Source(), nil)
	if err != nil {
		t.Fatalf("stream died: %v", err)
	}
	if len(results) != chaosSlices {
		t.Fatalf("got %d results, want %d", len(results), chaosSlices)
	}
	st := d.ResilienceStats()
	if st.InputRejects != 2 {
		t.Errorf("InputRejects = %d, want 2", st.InputRejects)
	}
	if st.SlicesSkipped != 2 {
		t.Errorf("SlicesSkipped = %d, want 2", st.SlicesSkipped)
	}
	if st.PanicsRecovered != 0 || st.Rollbacks != 0 {
		t.Errorf("scan-on run needed hard recovery: %+v", st)
	}
}

// TestChaosAbortPolicy: with the default Abort policy a poisoned slice
// stops the stream with an error, and the decomposer is left at the
// last-good snapshot (slice counter = slices completed).
func TestChaosAbortPolicy(t *testing.T) {
	dirty := cloneStream(chaosStream(t, 42))
	faultinject.New(7).CorruptValues(dirty.Slices[4], 2)

	d := newChaosDecomposer(t, dirty.Dims, &resilience.Config{
		Policy:           resilience.Abort,
		DisableInputScan: true,
	})
	results, err := d.ProcessStreamContext(context.Background(), dirty.Source(), nil)
	if err == nil {
		t.Fatal("abort policy swallowed the poisoned slice")
	}
	if errors.Is(err, resilience.ErrSliceSkipped) {
		t.Fatal("abort policy must not skip")
	}
	if len(results) != 4 || d.T() != 4 {
		t.Fatalf("got %d results, T=%d; want 4 completed slices before the abort", len(results), d.T())
	}
}

// TestChaosStallTimeout: a hook-injected stall trips the per-slice
// deadline; under RetrySlice the retry (not stalled) succeeds and the
// stream finishes complete.
func TestChaosStallTimeout(t *testing.T) {
	s := chaosStream(t, 43)
	// The timeout must sit well above the honest solve time even with
	// race-detector instrumentation (which slows solves ~10×), or the
	// un-stalled retry itself trips the deadline and the test flakes.
	d := newChaosDecomposer(t, s.Dims, &resilience.Config{
		Policy:       resilience.RetrySlice,
		SliceTimeout: 300 * time.Millisecond,
		FaultHook:    faultinject.Plan{StallAt: map[int]time.Duration{3: 500 * time.Millisecond}}.Hook(),
	})
	results, err := d.ProcessStreamContext(context.Background(), s.Source(), nil)
	if err != nil {
		t.Fatalf("stalled slice not recovered: %v", err)
	}
	if len(results) != chaosSlices {
		t.Fatalf("got %d results, want %d", len(results), chaosSlices)
	}
	st := d.ResilienceStats()
	if st.Timeouts == 0 || st.SliceRetries == 0 {
		t.Errorf("expected a timeout and a retry, got %+v", st)
	}
}

// TestChaosHookPanicContained: a hook panic at an iteration boundary
// (outside any pool worker) is also contained, rolled back, and the
// retry succeeds.
func TestChaosHookPanicContained(t *testing.T) {
	s := chaosStream(t, 44)
	d := newChaosDecomposer(t, s.Dims, &resilience.Config{
		Policy:    resilience.RetrySlice,
		FaultHook: faultinject.Plan{PanicAt: map[int]bool{6: true}}.Hook(),
	})
	results, err := d.ProcessStreamContext(context.Background(), s.Source(), nil)
	if err != nil {
		t.Fatalf("hook panic not recovered: %v", err)
	}
	if len(results) != chaosSlices {
		t.Fatalf("got %d results, want %d", len(results), chaosSlices)
	}
	st := d.ResilienceStats()
	if st.PanicsRecovered != 1 || st.Rollbacks != 1 {
		t.Errorf("got %+v, want exactly one recovered panic and one rollback", st)
	}
}
