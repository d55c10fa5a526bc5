package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"spstream/internal/dense"
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
	var refS, rows [][]float64 // S uninterrupted, and across the restore
	for _, x := range s.Slices {
		refTrace = scheduleTrace(t, ref, x, refTrace)
		refS = append(refS, slices.Clone(ref.LastS()))
	}

	first, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices[:cut] {
		if _, err := first.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, slices.Clone(first.LastS()))
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
		rows = append(rows, slices.Clone(second.LastS()))
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
	if d := dense.FromRows(refS).MaxAbsDiff(dense.FromRows(rows)); d != 0 {
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
// a v4 one, which has no z-side log, a v5 one, which carries a temporal
// history, or a v6 one, which carries C_z and the nz sets, is rejected
// by an error that names its version, even under a valid checksum.
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
	for _, version := range []string{"SPSTRM02", "SPSTRM03", "SPSTRM04", "SPSTRM05", "SPSTRM06"} {
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

// savedStateSHA256 is the SHA-256 of the SPSTRM07 bytes SaveState writes
// for savedStateFixture: the stored rows, their ages and the log of a
// lazy z side three slices past its last flush.
const savedStateSHA256 = "a63335e1b49eabfc06dd9f63be311a80581311dea7a10109b3974b887a718536"

// savedStateFixture is a decomposer whose state has every section of
// the format filled in: a lazy z side and a WAL cursor.
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

// TestCheckpointFlatInT: a checkpoint holds the model and its K×K
// invariants, not the stream's past, so SaveState writes as many bytes
// at t = 10 as at t = 10 000 on the same dims, and RestoreState
// allocates as often. Nor does it hold the last slice's nz sets: at
// t = zLogLen, where the lazy z side has just flushed, an SpCPStream
// checkpoint is as long as an Optimized one.
func TestCheckpointFlatInT(t *testing.T) {
	dims, opt := []int{6, 7}, Options{Rank: 3, Seed: 1, Workers: 1, MaxIters: 1}
	s := testStream(t, 312, dims, 60, 10)
	var size []int
	var allocs []float64
	for _, T := range []int{10, 10000} {
		var buf bytes.Buffer
		if err := runCycled(t, s, opt, T).SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		fresh, err := NewDecomposer(dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		size = append(size, len(raw))
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			if err := fresh.RestoreState(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		}))
		if fresh.T() != T {
			t.Fatalf("restored t = %d, want %d", fresh.T(), T)
		}
	}
	if size[0] != size[1] {
		t.Errorf("SaveState wrote %d bytes at t = 10 and %d at t = 10 000, want the same", size[0], size[1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("RestoreState allocates %.0f times at t = 10 and %.0f at t = 10 000, want the same", allocs[0], allocs[1])
	}
	var lens [2]int
	for i, alg := range []Algorithm{Optimized, SpCPStream} {
		o := opt
		o.Algorithm = alg
		var buf bytes.Buffer
		d := runCycled(t, s, o, zLogLen)
		if err := d.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		if d.cur.lag != 0 {
			t.Fatalf("%v: z side lags %d slices at t = zLogLen, want a flush", alg, d.cur.lag)
		}
		lens[i] = buf.Len()
	}
	if lens[0] != lens[1] {
		t.Errorf("at t = zLogLen an Optimized checkpoint has %d bytes, an SpCPStream one %d, want the same", lens[0], lens[1])
	}
}

// TestRestoreEverySliceContinuesBitEqual checkpoints a 3·zLogLen spCP
// stream after every slice — at every phase of the lazy z side, three
// flushes included — restores each checkpoint into a fresh decomposer at
// another worker count, and holds every continued slice to the bits of
// the uninterrupted run.
func TestRestoreEverySliceContinuesBitEqual(t *testing.T) {
	cfg, err := synth.Preset("flickr", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg.T, cfg.NNZPerSlice = 3*zLogLen, 60
	s, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Rank: 4, Algorithm: SpCPStream, Mu: 0.95, Normalize: true, Seed: 8, Workers: 2, MaxIters: 4}
	ref, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints [][]byte
	var want []uint64
	for _, x := range s.Slices {
		if _, err := ref.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ref.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		checkpoints = append(checkpoints, buf.Bytes())
		want = append(want, stateHash(ref))
	}
	for at, raw := range checkpoints[:len(checkpoints)-1] {
		o := opt
		o.Workers = 1 + at%3
		d, err := NewDecomposer(s.Dims, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RestoreState(bytes.NewReader(raw)); err != nil {
			t.Fatalf("checkpoint after slice %d: %v", at, err)
		}
		for ti := at + 1; ti < len(s.Slices); ti++ {
			if _, err := d.ProcessSlice(s.Slices[ti]); err != nil {
				t.Fatal(err)
			}
			if got := stateHash(d); got != want[ti] {
				t.Fatalf("restored after slice %d (lag %d) at %d workers: slice %d hashes %#x, uninterrupted %#x",
					at, d.cur.lag, o.Workers, ti, got, want[ti])
			}
		}
	}
}

// stateHash is the FNV-64a hash of a decomposer's model and Gram state:
// its factors brought current, C, the C_z its last slice finished with,
// sₜ and G.
func stateHash(d *Decomposer) uint64 {
	h := fnv.New64a()
	for m := range d.dims {
		for _, mat := range []*dense.Matrix{d.Factor(m), d.modes[m].c, d.modes[m].czCur} {
			hashFloats(h, mat.Data...)
		}
	}
	hashFloats(h, d.s...)
	hashFloats(h, d.g.Data...)
	return h.Sum64()
}
