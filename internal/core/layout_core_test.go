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

// remapStream generates a stream skewed enough for the selector to
// choose remapping under the default cost model: one long mode whose
// activity touches a small fraction of its rows, so the z-row solve
// collapse dominates the remap build cost even at small ranks.
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

// scheduleTrace runs one slice and appends the resolved kernel table and
// layout verdict — the per-slice schedule fingerprint the determinism
// contract is stated in.
func scheduleTrace(t *testing.T, d *Decomposer, x *sptensor.Tensor, trace []byte) []byte {
	t.Helper()
	if _, err := d.ProcessSlice(x); err != nil {
		t.Fatal(err)
	}
	trace = d.KernelSchedule(trace)
	code := byte('-')
	if rm, _ := d.LastLayoutDecision(); rm {
		code = 'R'
	}
	return append(trace, code, '|')
}

// TestLayoutCheckpointRoundTrip is the determinism acceptance test: save
// mid-stream with an active remap schedule, restore into a fresh
// decomposer, and finish the stream — the factors must be bit-identical
// to an uninterrupted run and the kernel+layout schedule of every
// remaining slice identical. The checkpoint carries no layout state;
// the schedule (and with it the rounding order, hence the factors) is a
// function of each slice alone.
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
	if rm, _ := first.LastLayoutDecision(); !rm {
		t.Fatal("stream does not trigger remapping — test is vacuous")
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

// TestExplicitRemapEquivalence: the remapped inner loop computes the
// same updates as the layout-off path up to floating-point
// reassociation (the z-row solves compose Q·Φ⁻¹ before touching the
// rows). The factor trajectories must stay close across a whole stream.
func TestExplicitRemapEquivalence(t *testing.T) {
	s := remapStream(t, 405, 6)
	on, _ := runStream(t, s, Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5, Layout: LayoutAuto})
	off, _ := runStream(t, s, Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5, Layout: LayoutOff})
	if rm, _ := on.LastLayoutDecision(); !rm {
		t.Fatal("layout-on run never remapped — test is vacuous")
	}
	if rm, _ := off.LastLayoutDecision(); rm {
		t.Fatal("layout-off run remapped")
	}
	if d := maxFactorDiff(on, off); d > 1e-6 {
		t.Fatalf("remap path diverges from layout-off by %g", d)
	}
}

// TestExplicitRemapIterateZeroAlloc extends the steady-state guarantee
// to the remapped inner loop: compact kernels, fused historical term,
// compact solves, the z-row composition, and the per-mode gather refresh
// all run on pooled storage.
func TestExplicitRemapIterateZeroAlloc(t *testing.T) {
	s := remapStream(t, 406, 3)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: Optimized, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices[:2] {
		if _, err := d.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	run, err := d.beginExplicit(sliceData{x: s.Slices[2]})
	if err != nil {
		t.Fatal(err)
	}
	if run.rm == nil {
		t.Fatal("slice not remapped — test is vacuous")
	}
	if _, err := d.iterateExplicit(run); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.iterateExplicit(run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("remapped inner iteration allocates %.1f times per run, want 0", allocs)
	}
}

// TestLayoutPolicyTuning covers the runtime layout knob: validation,
// LayoutOff (remapping stops), and re-enabling.
func TestLayoutPolicyTuning(t *testing.T) {
	s := remapStream(t, 407, 4)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetLayoutPolicy(LayoutPolicy(99)); err == nil {
		t.Fatal("invalid layout policy accepted")
	}
	if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	if rm, _ := d.LastLayoutDecision(); !rm {
		t.Fatal("expected remap on slice 0")
	}

	if err := d.SetLayoutPolicy(LayoutOff); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(s.Slices[1]); err != nil {
		t.Fatal(err)
	}
	if rm, _ := d.LastLayoutDecision(); rm {
		t.Fatal("LayoutOff slice still remapped")
	}

	if err := d.SetLayoutPolicy(LayoutAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(s.Slices[2]); err != nil {
		t.Fatal(err)
	}
	if rm, _ := d.LastLayoutDecision(); !rm {
		t.Fatal("re-enabled layout did not resume remapping")
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
// section still restores — the section is stepped over — and the
// resumed stream ends bit-identical to an uninterrupted run; the same
// bytes cut anywhere inside the section, with an illegal permutation
// flag, or with one checksummed byte of the section flipped are
// rejected.
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
	d, err := restore(raw)
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if d.T() != legacyCut {
		t.Fatalf("restored T = %d, want %d", d.T(), legacyCut)
	}
	for _, x := range s.Slices[legacyCut:] {
		if _, err := d.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	if diff := maxFactorDiff(ref, d); diff != 0 {
		t.Fatalf("resumed factors differ from uninterrupted by %g", diff)
	}
	if diff := ref.Temporal().MaxAbsDiff(d.Temporal()); diff != 0 {
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

// TestRemapScheduleIgnoresHistory: the kernel table and the remap
// verdict of a slice are those it gets as slice 0 of a fresh
// decomposer, whatever came before it — a slice dropped under SkipSlice,
// its own failed first attempt under RetrySlice, a LayoutOff interlude,
// or a restore from an SPSTRM02 checkpoint, which has no layout section.
func TestRemapScheduleIgnoresHistory(t *testing.T) {
	s := remapStream(t, 408, 4)
	probe := s.Slices[3]
	opt := Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5}
	boom := errors.New("injected")

	fresh, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := string(scheduleTrace(t, fresh, probe, nil))
	if !strings.HasSuffix(want, "R|") {
		t.Fatalf("probe schedule %q is not remapped — test is vacuous", want)
	}

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
		"off-auto": func(t *testing.T) *Decomposer {
			d, err := NewDecomposer(s.Dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, pol := range []LayoutPolicy{LayoutAuto, LayoutOff} {
				if err := d.SetLayoutPolicy(pol); err != nil {
					t.Fatal(err)
				}
				if _, err := d.ProcessSlice(s.Slices[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.SetLayoutPolicy(LayoutAuto); err != nil {
				t.Fatal(err)
			}
			return d
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
