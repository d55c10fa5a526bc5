package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spstream/internal/parallel"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
)

// TestCancelCheckpointResume is the cancellation acceptance scenario:
// cancel mid-slice, checkpoint the (rolled-back, consistent) state,
// restore into a fresh decomposer, continue — and end bit-identical to
// an uninterrupted run.
func TestCancelCheckpointResume(t *testing.T) {
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		s := testStream(t, 301, []int{14, 18}, 160, 8)
		opt := Options{Rank: 3, Algorithm: alg, Workers: 2, Seed: 5}

		ref, err := NewDecomposer(s.Dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ProcessStream(s.Source(), nil); err != nil {
			t.Fatal(err)
		}

		// Interrupted run: cancel from inside slice 4's first iteration.
		optR := opt
		cut := 4
		ctx, cancel := context.WithCancel(context.Background())
		optR.Resilience = &resilience.Config{
			FaultHook: func(f resilience.Fault) error {
				if f.Slice == cut && f.Stage == resilience.StageIterate {
					cancel()
				}
				return nil
			},
		}
		first, err := NewDecomposer(s.Dims, optR)
		if err != nil {
			t.Fatal(err)
		}
		results, err := first.ProcessStreamContext(ctx, s.Source(), nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: stream ended with %v, want context.Canceled", alg, err)
		}
		if len(results) != cut || first.T() != cut {
			t.Fatalf("%v: %d results, T=%d; cancellation mid-slice %d must roll back to %d completed",
				alg, len(results), first.T(), cut, cut)
		}
		if first.ResilienceStats().Cancellations != 1 {
			t.Errorf("%v: Cancellations = %d", alg, first.ResilienceStats().Cancellations)
		}

		// Checkpoint the rolled-back state, restore, continue.
		var buf bytes.Buffer
		if err := first.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		second, err := NewDecomposer(s.Dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := second.RestoreState(&buf); err != nil {
			t.Fatal(err)
		}
		for ti := second.T(); ti < s.T(); ti++ {
			if _, err := second.ProcessSlice(s.Slices[ti]); err != nil {
				t.Fatal(err)
			}
		}
		if second.T() != ref.T() {
			t.Fatalf("%v: resumed run processed %d slices, uninterrupted %d", alg, second.T(), ref.T())
		}
		if d := maxFactorDiff(ref, second); d != 0 {
			t.Fatalf("%v: resumed factors differ from uninterrupted by %g", alg, d)
		}
		if d := ref.Temporal().MaxAbsDiff(second.Temporal()); d != 0 {
			t.Fatalf("%v: temporal factors differ by %g", alg, d)
		}
	}
}

// TestCancelBeforeFirstSlice: an already-cancelled context processes
// nothing.
func TestCancelBeforeFirstSlice(t *testing.T) {
	s := testStream(t, 302, []int{10, 10}, 80, 3)
	d, err := NewDecomposer(s.Dims, Options{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := d.ProcessStreamContext(ctx, s.Source(), nil)
	if !errors.Is(err, context.Canceled) || len(results) != 0 || d.T() != 0 {
		t.Fatalf("got %d results, T=%d, err=%v", len(results), d.T(), err)
	}
}

// TestDeadlinePropagatesWithoutConfig: the context path honours
// deadlines even with no resilience config (state is then unspecified
// on error, as documented — only the error surface is asserted).
func TestDeadlinePropagatesWithoutConfig(t *testing.T) {
	s := testStream(t, 303, []int{10, 10}, 80, 1)
	d, err := NewDecomposer(s.Dims, Options{Rank: 2, MaxIters: 50, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := d.ProcessSliceContext(ctx, s.Slices[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
}

// TestWorkerPanicSurfacesAsError: a panic inside a pool worker during
// a slice surfaces as an error carrying the worker's stack (with a
// resilience config and Abort policy), not as a process crash.
func TestWorkerPanicSurfacesAsError(t *testing.T) {
	s := testStream(t, 304, []int{12, 15}, 150, 2)
	d, err := NewDecomposer(s.Dims, Options{
		Rank:      3,
		Workers:   4,
		Seed:      2,
		MemBudget: 1, // every block slice streams: the kernels decode on the pool
		Resilience: &resilience.Config{
			Policy:           resilience.Abort,
			DisableInputScan: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	// A block that goes away once the schedule compile has read it: the
	// streamed kernel's decode panics inside a pool worker.
	src, err := sptensor.SplitBlocks(s.Slices[1], 40)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.ProcessBlockSlice(&flakySource{BlockSource: src, bad: 1, good: 1, panics: true})
	if err == nil {
		t.Fatal("vanished block did not error")
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry a *parallel.PanicError", err)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Error("panic error carries no stack")
	}
	if d.ResilienceStats().PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d", d.ResilienceStats().PanicsRecovered)
	}
	// Rolled back: T unchanged, and the decomposer still processes good
	// slices.
	if d.T() != 1 {
		t.Fatalf("T = %d after contained panic, want 1", d.T())
	}
	if _, err := d.ProcessSlice(s.Slices[1]); err != nil {
		t.Fatalf("decomposer unusable after contained panic: %v", err)
	}
}

// TestCheckpointCRCRejectsCorruption: a bit flip anywhere in a v2
// checkpoint fails the CRC check (or the structural validation for
// header bytes) — never a silent wrong restore.
func TestCheckpointCRCRejectsCorruption(t *testing.T) {
	s := testStream(t, 305, []int{10, 12}, 100, 3)
	d, _ := runStream(t, s, Options{Rank: 2, Seed: 1})
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit in every region: magic, header, payload middle,
	// payload end, footer.
	for _, off := range []int{2, 12, len(raw) / 2, len(raw) - 6, len(raw) - 1} {
		corrupted := append([]byte(nil), raw...)
		corrupted[off] ^= 0x10
		fresh, err := NewDecomposer([]int{10, 12}, Options{Rank: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(bytes.NewReader(corrupted)); err == nil {
			t.Errorf("bit flip at offset %d restored silently", off)
		}
	}
	// Truncation of just the footer is rejected too.
	fresh, _ := NewDecomposer([]int{10, 12}, Options{Rank: 2})
	if err := fresh.RestoreState(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("footer truncation restored silently")
	}
	// The pristine bytes still restore.
	if err := fresh.RestoreState(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreV1Checkpoint: a v1 (SPSTRM01) checkpoint — same payload,
// no CRC footer — still restores bit-identically.
func TestRestoreV1Checkpoint(t *testing.T) {
	s := testStream(t, 306, []int{10, 12}, 100, 3)
	d, _ := runStream(t, s, Options{Rank: 2, Seed: 1})
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	v1 := append([]byte(nil), v2[:len(v2)-4]...) // strip the CRC footer
	copy(v1, stateMagicV1[:])

	restored, err := NewDecomposer([]int{10, 12}, Options{Rank: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(bytes.NewReader(v1)); err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if restored.T() != d.T() {
		t.Fatalf("restored T = %d, want %d", restored.T(), d.T())
	}
	if diff := maxFactorDiff(d, restored); diff != 0 {
		t.Fatalf("v1 restore differs by %g", diff)
	}
}

// TestStreamCheckpointResume: periodic checkpoints during
// ProcessStreamContext, a simulated crash, RestoreLatest into a fresh
// decomposer, and a replay of the tail — matching the uninterrupted
// run exactly.
func TestStreamCheckpointResume(t *testing.T) {
	s := testStream(t, 307, []int{12, 14}, 120, 9)
	opt := Options{Rank: 3, Algorithm: Optimized, Seed: 4}

	ref, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessStream(s.Source(), nil); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mgr, err := resilience.NewManager(dir, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	optC := opt
	optC.Resilience = &resilience.Config{Checkpoint: mgr}
	crashing, err := NewDecomposer(s.Dims, optC)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash" after slice 7 by feeding only a prefix of the stream.
	prefix := &sptensor.Stream{Dims: s.Dims, Slices: s.Slices[:7]}
	if _, err := crashing.ProcessStreamContext(context.Background(), prefix.Source(), nil); err != nil {
		t.Fatal(err)
	}
	if got := crashing.ResilienceStats().CheckpointWrites; got != 2 { // t=3, t=6
		t.Fatalf("CheckpointWrites = %d, want 2", got)
	}

	resumed, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	path, err := resilience.RestoreNewest(dir, resumed.RestoreState)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.T() != 6 {
		t.Fatalf("restored %q at T=%d, want 6", path, resumed.T())
	}
	for ti := resumed.T(); ti < s.T(); ti++ {
		if _, err := resumed.ProcessSlice(s.Slices[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if d := maxFactorDiff(ref, resumed); d != 0 {
		t.Fatalf("resumed run differs from uninterrupted by %g", d)
	}
}

// TestRetryAfterTransientFailure: RetrySlice re-runs from the snapshot
// and a first-attempt-only fault leaves the final state identical to a
// fault-free run.
func TestRetryAfterTransientFailure(t *testing.T) {
	s := testStream(t, 308, []int{12, 14}, 120, 5)
	opt := Options{Rank: 3, Algorithm: Optimized, Seed: 4}
	ref, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessStream(s.Source(), nil); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("transient")
	optR := opt
	optR.Resilience = &resilience.Config{
		Policy: resilience.RetrySlice,
		FaultHook: func(f resilience.Fault) error {
			if f.Slice == 2 && f.Stage == resilience.StageBegin && f.Attempt == 0 {
				return boom
			}
			return nil
		},
	}
	d, err := NewDecomposer(s.Dims, optR)
	if err != nil {
		t.Fatal(err)
	}
	results, err := d.ProcessStreamContext(context.Background(), s.Source(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Retries != 1 {
		t.Errorf("slice 2 Retries = %d, want 1", results[2].Retries)
	}
	st := d.ResilienceStats()
	if st.SliceRetries != 1 || st.Rollbacks != 1 {
		t.Errorf("stats = %+v, want one retry and one rollback", st)
	}
	if diff := maxFactorDiff(ref, d); diff != 0 {
		t.Fatalf("retried run differs from clean run by %g", diff)
	}
}
