package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"spstream/internal/dense"
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

		ref, refS := runStreamS(t, s, opt)

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
		var rows [][]float64 // S across the restore, as a caller collects it
		results, err := first.ProcessStreamContext(ctx, s.Source(), func(res SliceResult) {
			rows = append(rows, slices.Clone(first.LastS()))
		})
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
			rows = append(rows, slices.Clone(second.LastS()))
		}
		if second.T() != ref.T() {
			t.Fatalf("%v: resumed run processed %d slices, uninterrupted %d", alg, second.T(), ref.T())
		}
		if d := maxFactorDiff(ref, second); d != 0 {
			t.Fatalf("%v: resumed factors differ from uninterrupted by %g", alg, d)
		}
		if d := refS.MaxAbsDiff(dense.FromRows(rows)); d != 0 {
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

// TestCheckpointCRCRejectsCorruption: a bit flip anywhere in a
// checkpoint fails the CRC check (or the structural validation for
// header bytes) — never a silent wrong restore. That holds for a flip
// of the magic's version byte too, even with a payload bit flipped
// beside it: '4' → '1' names the footerless v1 format, which is
// rejected instead of restored unchecked (TestRestoreV1Checkpoint).
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
		sameStateBits(t, fmt.Sprintf("bit flip at offset %d", off), fresh)
	}
	// The version byte flipped to v1, alone and with a payload flip.
	if raw[7] != '7' {
		t.Fatalf("magic %q is not v7", raw[:8])
	}
	for _, payloadFlip := range []bool{false, true} {
		corrupted := append([]byte(nil), raw...)
		corrupted[7] ^= '7' ^ '1'
		if payloadFlip {
			corrupted[len(raw)/2] ^= 0x10
		}
		fresh, err := NewDecomposer([]int{10, 12}, Options{Rank: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(bytes.NewReader(corrupted)); err == nil {
			t.Errorf("magic flip to v1 (payload flip %v) restored silently", payloadFlip)
		}
		sameStateBits(t, fmt.Sprintf("magic flip to v1 (payload flip %v)", payloadFlip), fresh)
	}
	// Truncation of just the footer is rejected too.
	fresh, _ := NewDecomposer([]int{10, 12}, Options{Rank: 2})
	if err := fresh.RestoreState(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("footer truncation restored silently")
	}
	sameStateBits(t, "footer truncation", fresh)
	// The pristine bytes still restore.
	if err := fresh.RestoreState(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

// sameStateBits fails unless d, after a rejected restore, holds exactly
// the state of a fresh decomposer with its options: factors, C, G, sₜ,
// the slice counter and the WAL cursor. A rejected checkpoint must leave
// nothing of itself behind.
func sameStateBits(t *testing.T, label string, d *Decomposer) {
	t.Helper()
	want, err := NewDecomposer(d.Dims(), d.opt)
	if err != nil {
		t.Fatal(err)
	}
	for m := range d.Dims() {
		sameMatrixBits(t, fmt.Sprintf("%s: factor %d", label, m), d.Factor(m), want.Factor(m))
		sameMatrixBits(t, fmt.Sprintf("%s: C %d", label, m), d.modes[m].c, want.modes[m].c)
	}
	sameMatrixBits(t, label+": G", d.g, want.g)
	sameMatrixBits(t, label+": s", dense.FromRows([][]float64{d.s}), dense.FromRows([][]float64{want.s}))
	if d.T() != want.T() || d.Cursor() != want.Cursor() {
		t.Fatalf("%s: t=%d cursor=%d, want a fresh decomposer's t=%d cursor=%d",
			label, d.T(), d.Cursor(), want.T(), want.Cursor())
	}
}

// TestRestoreV1Checkpoint: a v1 (SPSTRM01) checkpoint — the current
// payload, no CRC footer — is rejected by its magic, so no restore
// goes unchecksummed.
func TestRestoreV1Checkpoint(t *testing.T) {
	s := testStream(t, 306, []int{10, 12}, 100, 3)
	d, _ := runStream(t, s, Options{Rank: 2, Seed: 1})
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v1 := append([]byte(nil), raw[:len(raw)-4]...) // strip the CRC footer
	copy(v1, "SPSTRM01")

	restored, err := NewDecomposer([]int{10, 12}, Options{Rank: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = restored.RestoreState(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") {
		t.Fatalf("v1 checkpoint: err = %v, want a bad-magic rejection", err)
	}
}

// TestStreamCheckpointResume: periodic checkpoints during
// ProcessStreamContext, a simulated crash, RestoreLatest into a fresh
// decomposer, and a replay of the tail — matching the uninterrupted
// run exactly.
func TestStreamCheckpointResume(t *testing.T) {
	for _, tc := range []struct {
		name              string
		s                 *sptensor.Stream
		workers, restored int
	}{
		{"same workers", testStream(t, 307, []int{12, 14}, 120, 9), 0, 0},
		// A checkpoint written at two workers resumes at seven bit for
		// bit — slices of several time-mode spans, a mode longer than one
		// Gram block.
		{"workers 2 to 7", testStream(t, 309, []int{300, 40, 20}, 5000, 9), 2, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			opt := Options{Rank: 3, Algorithm: Optimized, Seed: 4, Workers: tc.workers}

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

			optR := opt
			optR.Workers = tc.restored
			resumed, err := NewDecomposer(s.Dims, optR)
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
			for n := range s.Dims {
				sameMatrixBits(t, fmt.Sprintf("factor %d", n), resumed.Factor(n), ref.Factor(n))
			}
			for j, v := range resumed.LastS() {
				if math.Float64bits(v) != math.Float64bits(ref.LastS()[j]) {
					t.Fatalf("s[%d] = %v, %v uninterrupted", j, v, ref.LastS()[j])
				}
			}
		})
	}
}

// TestRetryAfterTransientFailure: RetrySlice re-runs from the snapshot,
// and a first-attempt-only fault leaves the final state — factors, sₜ
// and G — bit-identical to a fault-free run, under either algorithm and
// whether the fault fires before the slice begins or at iteration 2,
// after iteration 1 has written C, H and the iterate: the rollback
// restores C alone, and beginSlice re-seeds the rest.
func TestRetryAfterTransientFailure(t *testing.T) {
	s := testStream(t, 308, []int{12, 14}, 120, 5)
	boom := errors.New("transient")
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		opt := Options{Rank: 3, Algorithm: alg, Seed: 4}
		ref, err := NewDecomposer(s.Dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ProcessStream(s.Source(), nil); err != nil {
			t.Fatal(err)
		}
		for _, at := range []struct {
			name  string
			stage resilience.Stage
			iter  int
		}{{"begin", resilience.StageBegin, 0}, {"iteration 2", resilience.StageIterate, 2}} {
			label := fmt.Sprintf("%v, fault at %s", alg, at.name)
			optR := opt
			optR.Resilience = &resilience.Config{
				Policy: resilience.RetrySlice,
				FaultHook: func(f resilience.Fault) error {
					if f.Slice == 2 && f.Stage == at.stage && f.Iter == at.iter && f.Attempt == 0 {
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
				t.Fatalf("%s: %v", label, err)
			}
			if results[2].Retries != 1 {
				t.Errorf("%s: slice 2 Retries = %d, want 1", label, results[2].Retries)
			}
			if st := d.ResilienceStats(); st.SliceRetries != 1 || st.Rollbacks != 1 {
				t.Errorf("%s: stats = %+v, want one retry and one rollback", label, st)
			}
			for m := range s.Dims {
				sameMatrixBits(t, fmt.Sprintf("%s: factor %d", label, m), d.Factor(m), ref.Factor(m))
			}
			sameMatrixBits(t, label+": s", dense.FromRows([][]float64{d.LastS()}), dense.FromRows([][]float64{ref.LastS()}))
			sameMatrixBits(t, label+": G", d.g, ref.g)
		}
	}
}
