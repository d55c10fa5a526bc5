package core

import (
	"errors"
	"testing"

	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// TestCommitHookFiresOnlyOnCommit: the hook observes exactly the
// slices that committed (advanced t), never slices that failed the
// health check, were skipped, or rolled back.
func TestCommitHookFiresOnlyOnCommit(t *testing.T) {
	s, err := synth.Generate(synth.Config{
		Name:  "hook",
		Dists: []synth.IndexDist{synth.Uniform{N: 12}, synth.Uniform{N: 10}},
		T:     8, NNZPerSlice: 60, Values: synth.ValuePlanted, PlantedRank: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fail the 3rd and 6th distinct slices (every attempt); SkipSlice
	// drops them. Keyed on a first-attempt ordinal, not f.Slice: t does
	// not advance across skipped slices, so a slice-index key would
	// fail every slice from the first injected failure onward.
	var firstAttempts int
	rcfg := &resilience.Config{
		Policy: resilience.SkipSlice,
		FaultHook: func(f resilience.Fault) error {
			if f.Stage != resilience.StageBegin {
				return nil
			}
			if f.Attempt == 0 {
				firstAttempts++
			}
			if firstAttempts == 3 || firstAttempts == 6 {
				return resilience.ErrDiverged
			}
			return nil
		},
	}
	dec, err := NewDecomposer(s.Dims, Options{Rank: 3, Seed: 1, Resilience: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	var committed []int
	dec.SetCommitHook(func(res SliceResult) {
		committed = append(committed, res.T)
		if dec.T() != res.T+1 {
			t.Errorf("hook for slice %d ran before t advanced (t=%d)", res.T, dec.T())
		}
	})
	var skips int
	for _, x := range s.Slices {
		if _, err := dec.ProcessSlice(x); err != nil {
			if !errors.Is(err, resilience.ErrSliceSkipped) {
				t.Fatal(err)
			}
			skips++
		}
	}
	if skips != 2 {
		t.Fatalf("skips = %d, want 2", skips)
	}
	want := []int{0, 1, 2, 3, 4, 5} // t does not advance on skipped slices
	if len(committed) != len(want) {
		t.Fatalf("hook fired %d times (%v), want %d", len(committed), committed, len(want))
	}
	for i, w := range want {
		if committed[i] != w {
			t.Fatalf("committed = %v, want %v", committed, want)
		}
	}
}

// TestCommitHookUnguardedPath: without a resilience config the hook
// still fires per processed slice.
func TestCommitHookUnguardedPath(t *testing.T) {
	dims := []int{6, 5}
	dec, err := NewDecomposer(dims, Options{Rank: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	dec.SetCommitHook(func(SliceResult) { n++ })
	x := sptensor.New(dims...)
	x.Append([]int32{1, 2}, 1.5)
	x.Append([]int32{3, 4}, -0.5)
	for i := 0; i < 3; i++ {
		if _, err := dec.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	if n != 3 {
		t.Fatalf("hook fired %d times, want 3", n)
	}
}
