package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// remapStream generates a skewed stream: one long mode whose activity
// touches a small fraction of its rows beside two short ones — the shape
// the explicit body used to remap, and the committed legacy checkpoint's.
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

// legacyCheckpoint is the committed SPSTRM03 file the last commit with a
// learned layout wrote: SaveState after 4 slices of remapStream(404, 8)
// under legacyOptions, with hot-first permutations on every mode, hence
// a flag-1 layout section.
const (
	legacyCheckpoint = "testdata/spstrm03_layout.ckpt"
	legacyCut        = 4
)

var legacyOptions = Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5}

// legacySection returns the fixture's bytes and the offset of its layout
// section (the presence flag), which runs up to the 4-byte CRC footer.
func legacySection(t testing.TB, dims []int) ([]byte, int) {
	t.Helper()
	raw, err := os.ReadFile(legacyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	sec := 8 + 3*8 // presence flag, three counters
	for _, dim := range dims {
		sec += 8*dim + 4*8 + 8 + 4*dim // histogram, scalars, perm flag, perm
	}
	start := len(raw) - 4 - sec
	if start < 0 || binary.LittleEndian.Uint64(raw[start:]) != 1 {
		t.Fatalf("fixture has no flag-1 layout section at offset %d", start)
	}
	return raw, start
}

// resealCRC recomputes the footer after a deliberate payload mutation.
func resealCRC(raw []byte) {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
}

// TestRestoreLegacyLayoutSection: a checkpoint with a learned-layout
// section still restores — the section is stepped over — to exactly the
// state the same file holds with the section cut out, and the resumed
// stream ends where an uninterrupted run does, to rounding: the file's
// four slices were solved by the remapped update this commit no longer
// has, which reassociated the z rows. The same bytes cut anywhere inside
// the section, with an illegal permutation flag, or with one checksummed
// byte of the section flipped are rejected.
func TestRestoreLegacyLayoutSection(t *testing.T) {
	s := remapStream(t, 404, 8)
	raw, start := legacySection(t, s.Dims)
	ref, _ := runStream(t, s, legacyOptions)

	restore := func(b []byte) (*Decomposer, error) {
		d, err := NewDecomposer(s.Dims, legacyOptions)
		if err != nil {
			t.Fatal(err)
		}
		return d, d.RestoreState(bytes.NewReader(b))
	}
	// The same payload as a current writer would end it: flag 0, footer.
	bare := append(append([]byte(nil), raw[:start]...), make([]byte, 8+4)...)
	resealCRC(bare)
	var ds [2]*Decomposer
	for i, b := range [][]byte{raw, bare} {
		d, err := restore(b)
		if err != nil {
			t.Fatalf("legacy checkpoint (section cut: %v) rejected: %v", i == 1, err)
		}
		if d.T() != legacyCut {
			t.Fatalf("restored T = %d, want %d", d.T(), legacyCut)
		}
		for _, x := range s.Slices[legacyCut:] {
			if _, err := d.ProcessSlice(x); err != nil {
				t.Fatal(err)
			}
		}
		ds[i] = d
	}
	if diff := maxFactorDiff(ds[0], ds[1]) + ds[0].Temporal().MaxAbsDiff(ds[1].Temporal()); diff != 0 {
		t.Fatalf("stepping over the section moved the resumed run by %g", diff)
	}
	if diff := relFactorDiff(ref, ds[0]); diff > 1e-8 {
		t.Fatalf("resumed factors differ from uninterrupted by %g of the largest entry", diff)
	}
	if diff := ref.Temporal().MaxAbsDiff(ds[0].Temporal()); diff > 1e-8 {
		t.Fatalf("temporal factors differ by %g", diff)
	}

	// Truncation: every section boundary and a stride through the bulk.
	permFlag0 := start + 8 + 3*8 + 8*s.Dims[0] + 4*8
	cuts := []int{start, start + 4, start + 8, start + 8 + 3*8, permFlag0, permFlag0 + 8, len(raw) - 5, len(raw) - 4}
	for off := start + 13; off < len(raw)-4; off += 7919 {
		cuts = append(cuts, off)
	}
	for _, off := range cuts {
		if _, err := restore(raw[:off]); err == nil {
			t.Errorf("checkpoint truncated at %d of %d restored silently", off, len(raw))
		}
	}

	// A permutation flag that is neither 0 nor 1, under a valid CRC.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[permFlag0:], 2)
	resealCRC(bad)
	if _, err := restore(bad); err == nil || !strings.Contains(err.Error(), "perm presence flag") {
		t.Errorf("perm flag 2: got %v, want a perm presence flag error", err)
	}

	// One flipped bit in bytes the parser only skips: the CRC catches it.
	for _, off := range []int{start + 8 + 5, start + 8 + 3*8 + 17, permFlag0 + 8 + 3, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		if _, err := restore(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("bit flip at %d: got %v, want a checksum error", off, err)
		}
	}
}

// asV2 rewrites an SPSTRM03 checkpoint with an empty layout flag as the
// SPSTRM02 file an older writer would have produced: no flag, v2 magic.
func asV2(t testing.TB, v3 []byte) []byte {
	t.Helper()
	body := len(v3) - 4 - 8
	if binary.LittleEndian.Uint64(v3[body:]) != 0 {
		t.Fatal("checkpoint does not end in an empty layout flag")
	}
	v2 := append(append([]byte(nil), v3[:body]...), 0, 0, 0, 0)
	copy(v2, stateMagicV2[:])
	resealCRC(v2)
	return v2
}

// TestScheduleIgnoresHistory: the kernel schedule of a slice is the one it
// gets as slice 0 of a fresh decomposer, whatever came before it — a
// slice dropped under SkipSlice, its own failed first attempt under
// RetrySlice, or a restore from an SPSTRM02 checkpoint, which has no
// layout flag.
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
		"v2-restore": func(t *testing.T) *Decomposer {
			first, _ := runStream(t, &sptensor.Stream{Dims: s.Dims, Slices: s.Slices[:2]}, opt)
			var buf bytes.Buffer
			if err := first.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := NewDecomposer(s.Dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RestoreState(bytes.NewReader(asV2(t, buf.Bytes()))); err != nil {
				t.Fatalf("SPSTRM02 checkpoint rejected: %v", err)
			}
			if d.T() != 2 || maxFactorDiff(first, d) != 0 {
				t.Fatal("SPSTRM02 restore lost state")
			}
			return d
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
