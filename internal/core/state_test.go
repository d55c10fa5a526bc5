package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// remapStream generates a skewed stream: one long mode whose activity
// touches a small fraction of its rows beside two short ones — the shape
// the explicit body used to remap.
func remapStream(t testing.TB, seed uint64, slices int) *sptensor.Stream {
	t.Helper()
	s, err := synth.Generate(synth.Config{
		Name: "remap",
		Dists: []synth.IndexDist{
			synth.NewZipf(20000, 1.1),
			synth.Uniform{N: 60},
			synth.NewZipf(80, 1.2),
		},
		T:           slices,
		NNZPerSlice: 600,
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

// scheduleTrace runs one slice and appends its kernel schedule — the
// per-slice fingerprint the determinism contract is stated in.
func scheduleTrace(t *testing.T, d *Decomposer, x *sptensor.Tensor, trace []byte) []byte {
	t.Helper()
	if _, err := d.ProcessSlice(x); err != nil {
		t.Fatal(err)
	}
	return append(d.KernelSchedule(trace), '|')
}

// TestLayoutCheckpointRoundTrip is the determinism acceptance test: save
// mid-stream, restore into a fresh decomposer, and finish the stream —
// the factors must be bit-identical to an uninterrupted run and the
// kernel schedule of every remaining slice identical. The checkpoint
// carries no schedule state; the schedule (and with it the rounding
// order, hence the factors) is a function of each slice alone.
func TestLayoutCheckpointRoundTrip(t *testing.T) {
	s := remapStream(t, 404, 8)
	opt := Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5}
	cut := 4

	ref, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var refTrace []byte
	for _, x := range s.Slices {
		refTrace = scheduleTrace(t, ref, x, refTrace)
	}

	first, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices[:cut] {
		if _, err := first.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
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

	// Finish both runs, comparing the schedule slice by slice.
	var tailRef, tailSecond []byte
	for ti := cut; ti < s.T(); ti++ {
		tailRef = scheduleTrace(t, first, s.Slices[ti], tailRef)
		tailSecond = scheduleTrace(t, second, s.Slices[ti], tailSecond)
	}
	if !bytes.Equal(tailRef, tailSecond) {
		t.Fatalf("restored schedule %q != interrupted-run schedule %q", tailSecond, tailRef)
	}
	// The full reference trace must agree with the interrupted run's
	// tail too (the restore replays the same decisions the uninterrupted
	// stream made).
	if !bytes.Equal(refTrace[len(refTrace)-len(tailRef):], tailRef) {
		t.Fatalf("schedule tail %q != uninterrupted %q", tailRef, refTrace)
	}
	if d := maxFactorDiff(ref, second); d != 0 {
		t.Fatalf("restored factors differ from uninterrupted by %g", d)
	}
	if d := ref.Temporal().MaxAbsDiff(second.Temporal()); d != 0 {
		t.Fatalf("temporal factors differ by %g", d)
	}
}

// resealCRC recomputes the footer after a deliberate payload mutation.
func resealCRC(raw []byte) {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
}

// TestCheckpointCarriesCursor: the WAL cursor round-trips as the last
// payload word, under the checkpoint's one CRC — one flipped cursor bit
// fails the checksum — and a v2 or v3 checkpoint, which has no cursor,
// is rejected by an error that names its version, even under a valid
// checksum.
func TestCheckpointCarriesCursor(t *testing.T) {
	dims, opt := []int{6, 7}, Options{Rank: 3, Seed: 1}
	d, _ := runStream(t, testStream(t, 311, dims, 60, 3), opt)
	const cursor = 0x0102030405060708
	d.SetCursor(cursor)
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	restore := func(b []byte) (*Decomposer, error) {
		fresh, err := NewDecomposer(dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		return fresh, fresh.RestoreState(bytes.NewReader(b))
	}
	got, err := restore(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cursor() != cursor || got.T() != d.T() || maxFactorDiff(d, got) != 0 {
		t.Fatalf("restored cursor %#x at t=%d, want %#x at t=%d and the same factors", got.Cursor(), got.T(), uint64(cursor), d.T())
	}
	at := len(raw) - 4 - 8
	if binary.LittleEndian.Uint64(raw[at:]) != cursor {
		t.Fatal("the cursor is not the last word before the footer")
	}
	flipped := append([]byte(nil), raw...)
	flipped[at] ^= 0x01
	if _, err := restore(flipped); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped cursor bit: got %v, want a checksum error", err)
	}
	for _, version := range []string{"SPSTRM02", "SPSTRM03"} {
		old := append([]byte(nil), raw...)
		copy(old, version)
		resealCRC(old)
		if _, err := restore(old); err == nil || !strings.Contains(err.Error(), version) {
			t.Fatalf("%s checkpoint: got %v, want a rejection naming the version", version, err)
		}
	}
}

// TestScheduleIgnoresHistory: the kernel schedule of a slice is the one it
// gets as slice 0 of a fresh decomposer, whatever came before it — a
// slice dropped under SkipSlice or its own failed first attempt under
// RetrySlice.
func TestScheduleIgnoresHistory(t *testing.T) {
	s := remapStream(t, 408, 4)
	probe := s.Slices[3]
	opt := Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5}
	boom := errors.New("injected")

	fresh, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := string(scheduleTrace(t, fresh, probe, nil))

	histories := map[string]func(t *testing.T) *Decomposer{
		"skip": func(t *testing.T) *Decomposer {
			o := opt
			drop := false
			o.Resilience = &resilience.Config{
				Policy: resilience.SkipSlice,
				FaultHook: func(f resilience.Fault) error {
					if drop && f.Stage == resilience.StageIterate {
						return boom
					}
					return nil
				},
			}
			d, err := NewDecomposer(s.Dims, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
				t.Fatal(err)
			}
			drop = true
			if _, err := d.ProcessSliceContext(context.Background(), s.Slices[1]); !errors.Is(err, resilience.ErrSliceSkipped) {
				t.Fatalf("slice 1: %v, want a skip", err)
			}
			drop = false
			if d.T() != 1 {
				t.Fatalf("T = %d after a dropped slice, want 1", d.T())
			}
			return d
		},
		"retry": func(t *testing.T) *Decomposer {
			o := opt
			o.Resilience = &resilience.Config{
				Policy: resilience.RetrySlice,
				FaultHook: func(f resilience.Fault) error {
					if f.Slice == 1 && f.Stage == resilience.StageIterate && f.Attempt == 0 {
						return boom
					}
					return nil
				},
			}
			d, err := NewDecomposer(s.Dims, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
				t.Fatal(err)
			}
			return d // the probe is slice 1: its first attempt fails
		},
	}
	for name, history := range histories {
		t.Run(name, func(t *testing.T) {
			d := history(t)
			if got := string(scheduleTrace(t, d, probe, nil)); got != want {
				t.Fatalf("schedule %q after history, %q as slice 0 of a fresh decomposer", got, want)
			}
			if name == "retry" && d.ResilienceStats().SliceRetries != 1 {
				t.Fatalf("probe was not retried: %+v", d.ResilienceStats())
			}
		})
	}
}

// savedStateSHA256 is the SHA-256 of the SPSTRM04 bytes SaveState writes
// for savedStateFixture, taken when the encoder still wrote a row at a
// time: encoding through one buffer must not move a byte.
const savedStateSHA256 = "cd9aff0b5d267227c2fb81c98e2924bfe63eded7dcb45b7eecefc56b256b3084"

// savedStateFixture is a decomposer whose state has every section of
// the format filled in: spCP nz sets and z-row Grams, a temporal
// history, and a WAL cursor.
func savedStateFixture(t *testing.T) *Decomposer {
	t.Helper()
	s := testStream(t, 307, []int{300, 40, 25}, 400, 4)
	d, _ := runStream(t, s, Options{Rank: 5, Algorithm: SpCPStream, Seed: 3, Workers: 2})
	d.SetCursor(0x0123456789abcdef)
	return d
}

// TestSaveStateBytesPinned pins SaveState's output byte for byte.
func TestSaveStateBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := savedStateFixture(t).SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != savedStateSHA256 {
		t.Fatalf("SaveState wrote %d bytes hashing to %s, pinned %s", buf.Len(), got, savedStateSHA256)
	}
}
