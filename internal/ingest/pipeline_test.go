package ingest

import (
	"context"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// overloadStream generates the deterministic planted stream the
// overload harness feeds: structured enough that fits are meaningful,
// small enough that a throttled solver dominates runtime.
func overloadStream(t *testing.T, slices int, seed uint64) *sptensor.Stream {
	t.Helper()
	s, err := synth.Generate(synth.Config{
		Name:        "overload",
		Dists:       []synth.IndexDist{synth.Uniform{N: 25}, synth.Uniform{N: 30}},
		T:           slices,
		NNZPerSlice: 350,
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

// throttled artificially slows a decomposer so a fast producer
// overruns it by a known factor; embedding forwards the Tunable and
// checkpointing surfaces.
type throttled struct {
	*core.Decomposer
	delay time.Duration
}

func (th *throttled) ProcessSliceContext(ctx context.Context, x *sptensor.Tensor) (core.SliceResult, error) {
	time.Sleep(th.delay)
	return th.Decomposer.ProcessSliceContext(ctx, x)
}

// checkAccounting asserts the pipeline's exactly-once invariant.
func checkAccounting(t *testing.T, p *Pipeline) {
	t.Helper()
	s := p.Stats()
	if s.Produced != s.Processed+s.Failed+s.Coalesced+s.Shed() {
		t.Fatalf("accounting broken: produced=%d processed=%d failed=%d coalesced=%d shed=%d",
			s.Produced, s.Processed, s.Failed, s.Coalesced, s.Shed())
	}
}

// TestOverloadBoundedAndAccounted is the deterministic overload
// harness for the shedding policies: a producer ~10× faster than the
// throttled solver bursts slices at a bounded queue. Memory must stay
// bounded (high-water ≤ cap), and every produced slice must be
// accounted processed, failed, coalesced, or shed — exactly.
func TestOverloadBoundedAndAccounted(t *testing.T) {
	for _, policy := range []ShedPolicy{DropNewest, DropOldest, Coalesce} {
		t.Run(policy.String(), func(t *testing.T) {
			s := overloadStream(t, 60, 7)
			dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Algorithm: core.Optimized, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			th := &throttled{Decomposer: dec, delay: 2 * time.Millisecond}
			const cap = 4
			p, err := New(th, Config{QueueCap: cap, Policy: policy, DrainTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			p.Start(context.Background())
			// Burst: ~10× the solver's pace (producer sleeps 0.2ms vs
			// the solver's ≥2ms per slice).
			for _, x := range s.Slices {
				if err := p.Offer(x); err != nil {
					t.Fatal(err)
				}
				time.Sleep(200 * time.Microsecond)
			}
			snap := p.Drain(context.Background())
			if snap.Produced != int64(len(s.Slices)) {
				t.Fatalf("produced = %d, want %d", snap.Produced, len(s.Slices))
			}
			checkAccounting(t, p)
			if snap.QueueHighWater > cap {
				t.Fatalf("queue high-water %d exceeded cap %d", snap.QueueHighWater, cap)
			}
			if snap.Processed == 0 {
				t.Fatal("nothing processed")
			}
			if policy == Coalesce {
				if snap.Coalesced == 0 {
					t.Fatal("coalesce policy never merged under 10× overload")
				}
				if snap.Shed() != snap.ShedDrain {
					t.Fatalf("coalesce policy shed outside drain: %+v", snap)
				}
			} else if snap.Shed() == 0 {
				t.Fatalf("%v shed nothing under 10× overload", policy)
			}
		})
	}
}

// TestBlockPolicyLosesNothing: backpressure processes every slice.
func TestBlockPolicyLosesNothing(t *testing.T) {
	s := overloadStream(t, 20, 8)
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := &throttled{Decomposer: dec, delay: time.Millisecond}
	p, err := New(th, Config{QueueCap: 2, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, x := range s.Slices {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Drain(context.Background())
	if snap.Processed != int64(len(s.Slices)) || snap.Shed() != 0 {
		t.Fatalf("block policy: processed=%d shed=%d, want %d/0", snap.Processed, snap.Shed(), len(s.Slices))
	}
	checkAccounting(t, p)
	if dec.T() != len(s.Slices) {
		t.Fatalf("decomposer at t=%d, want %d", dec.T(), len(s.Slices))
	}
}

// TestStaleShedBeforeSolving: with a tight MaxLag and a slow solver,
// slices that sat in the queue past the deadline are shed without
// being solved.
func TestStaleShedBeforeSolving(t *testing.T) {
	s := overloadStream(t, 30, 9)
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := &throttled{Decomposer: dec, delay: 10 * time.Millisecond}
	p, err := New(th, Config{QueueCap: 8, Policy: Block, MaxLag: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, x := range s.Slices {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Drain(context.Background())
	checkAccounting(t, p)
	if snap.ShedStale == 0 {
		t.Fatalf("no stale sheds with 15ms MaxLag behind a 10ms solver: %+v", snap)
	}
}

// TestDegradeUnderBurstThenRecover is the controller's end-to-end
// acceptance: a burst degrades quality; once the burst ends and the
// feed pace drops below the solver's, the ladder steps back to full
// quality and the original settings are restored.
func TestDegradeUnderBurstThenRecover(t *testing.T) {
	s := overloadStream(t, 80, 10)
	const baseIters = 12
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Algorithm: core.Optimized, Seed: 1, MaxIters: baseIters, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	th := &throttled{Decomposer: dec, delay: 2 * time.Millisecond}
	p, err := New(th, Config{
		QueueCap: 4,
		Policy:   DropOldest,
		Degrade:  &ControllerConfig{StepUpAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	// Phase 1 — burst: offer 40 slices far faster than the solver.
	for _, x := range s.Slices[:40] {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for pressure to register.
	deadline := time.Now().Add(5 * time.Second)
	for p.Level() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Level() == 0 {
		t.Fatal("controller never degraded under a 10× burst")
	}
	// Phase 2 — calm: offer the remaining slices strictly slower than
	// the solver by waiting for the queue to empty after each one, so
	// every observation sees a shallow queue whatever the machine's
	// actual solve speed.
	for _, x := range s.Slices[40:] {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
		for p.Depth() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for p.Level() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snap := p.Drain(context.Background())
	checkAccounting(t, p)
	if snap.DegradeSteps == 0 {
		t.Fatal("no degrade steps recorded")
	}
	if p.Level() != 0 {
		t.Fatalf("level = %d after the burst ended, want 0 (restore steps %d)", p.Level(), snap.RestoreSteps)
	}
	if dec.MaxIters() != baseIters {
		t.Fatalf("MaxIters = %d after recovery, want %d", dec.MaxIters(), baseIters)
	}
	if dec.Algorithm() != core.Optimized {
		t.Fatalf("algorithm = %v after recovery, want Optimized", dec.Algorithm())
	}
}

// TestDrainTimeoutShedsBacklog: a drain that cannot finish by the
// deadline sheds what remains — and still accounts for every slice.
func TestDrainTimeoutShedsBacklog(t *testing.T) {
	s := overloadStream(t, 10, 11)
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := &throttled{Decomposer: dec, delay: 50 * time.Millisecond}
	p, err := New(th, Config{QueueCap: 10, Policy: Block, DrainTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, x := range s.Slices {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Drain(context.Background())
	checkAccounting(t, p)
	if snap.ShedDrain == 0 {
		t.Fatalf("60ms drain of a 500ms backlog shed nothing: %+v", snap)
	}
	// Offers after the drain are refused and accounted.
	if err := p.Offer(s.Slices[0].Clone()); err != ErrDraining {
		t.Fatalf("Offer after drain = %v, want ErrDraining", err)
	}
	checkAccounting(t, p)
}

// TestDrainWritesRestorableCheckpoint: the graceful-shutdown path must
// leave a checkpoint the next process can restore — even when the
// drain happens mid-overload.
func TestDrainWritesRestorableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := overloadStream(t, 30, 12)
	mgr, err := resilience.NewManager(dir, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewDecomposer(s.Dims, core.Options{
		Rank: 4, Seed: 1,
		Resilience: &resilience.Config{Checkpoint: mgr},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := &throttled{Decomposer: dec, delay: 2 * time.Millisecond}
	p, err := New(th, Config{QueueCap: 4, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, x := range s.Slices {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Drain(context.Background())
	checkAccounting(t, p)
	if snap.Processed == 0 {
		t.Fatal("nothing processed before the drain")
	}
	// Drain wrote the final checkpoint itself, at the last slice — not
	// only the periodic ones (every 5).
	if want := mgr.Path(dec.T()); len(mgr.Checkpoints()) == 0 || mgr.Checkpoints()[0] != want {
		t.Fatalf("newest checkpoint %v, want %s", mgr.Checkpoints(), want)
	}
	restored, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resilience.RestoreNewest(dir, restored.RestoreState); err != nil {
		t.Fatal(err)
	}
	if restored.T() != dec.T() {
		t.Fatalf("restored t=%d, want %d", restored.T(), dec.T())
	}
}

// TestAdmissionGateShedsWithExactAccounting: a closed gate (the
// serving layer's open circuit breaker) refuses admissions with
// ErrGateClosed, counts them as breaker sheds, and the exactly-once
// invariant extends across gate sheds, queue-full sheds, and normal
// processing within one stream.
func TestAdmissionGateShedsWithExactAccounting(t *testing.T) {
	s := overloadStream(t, 30, 11)
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Algorithm: core.Optimized, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var gateOpen = true
	p, err := New(dec, Config{
		QueueCap: 4,
		Policy:   DropNewest,
		Gate:     func() bool { return gateOpen },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	var gateSheds int64
	for i, x := range s.Slices {
		gateOpen = i < 10 || i >= 20 // breaker "open" for the middle third
		err := p.Admit(x)
		switch {
		case !gateOpen:
			if err != ErrGateClosed {
				t.Fatalf("slice %d: gate closed but Admit returned %v", i, err)
			}
			gateSheds++
		case err == ErrQueueFull || err == nil:
			// Both are legitimate for an open gate under DropNewest.
		default:
			t.Fatalf("slice %d: unexpected Admit error %v", i, err)
		}
	}
	snap := p.Drain(context.Background())
	checkAccounting(t, p)
	if snap.ShedBreaker != gateSheds || gateSheds != 10 {
		t.Fatalf("breaker sheds = %d (returned %d), want 10", snap.ShedBreaker, gateSheds)
	}
	if snap.Produced != int64(len(s.Slices)) {
		t.Fatalf("produced = %d, want %d (gate sheds must still be produced)", snap.Produced, len(s.Slices))
	}
}

// TestAdmitReportsQueueFull: under DropNewest, Admit surfaces the
// policy shed that Offer deliberately hides, so an HTTP producer can
// translate it into backpressure.
func TestAdmitReportsQueueFull(t *testing.T) {
	s := overloadStream(t, 6, 12)
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(dec, Config{QueueCap: 2, Policy: DropNewest})
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the queue fills and stays full, making the shed
	// deterministic.
	for i := 0; i < 2; i++ {
		if err := p.Admit(s.Slices[i]); err != nil {
			t.Fatalf("admit %d into empty queue: %v", i, err)
		}
	}
	if err := p.Admit(s.Slices[2]); err != ErrQueueFull {
		t.Fatalf("Admit into full queue = %v, want ErrQueueFull", err)
	}
	if err := p.Offer(s.Slices[3]); err != nil {
		t.Fatalf("Offer must hide the policy shed, got %v", err)
	}
	if got := p.Stats().ShedNewest; got != 2 {
		t.Fatalf("ShedNewest = %d, want 2", got)
	}
	p.Start(context.Background())
	p.Drain(context.Background())
	checkAccounting(t, p)
}
