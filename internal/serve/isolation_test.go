package serve

import (
	"errors"
	"math"
	"testing"

	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// testStream generates a small deterministic planted stream.
func testStream(t *testing.T, slices int, seed uint64) *sptensor.Stream {
	t.Helper()
	s, err := synth.Generate(synth.Config{
		Name:  "serve",
		Dists: []synth.IndexDist{synth.Uniform{N: 15}, synth.Uniform{N: 12}},
		T:     slices, NNZPerSlice: 120,
		Values: synth.ValuePlanted, PlantedRank: 2, NoiseStd: 0.01,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// failNthSlices returns a fault hook failing every attempt of the
// given first-attempt ordinals (1-based). Keyed on an attempt counter,
// not the slice index: t does not advance across failed slices.
func failNthSlices(fail ...int) resilience.Hook {
	failing := make(map[int]bool, len(fail))
	for _, n := range fail {
		failing[n] = true
	}
	var first int
	return func(f resilience.Fault) error {
		if f.Stage != resilience.StageBegin {
			return nil
		}
		if f.Attempt == 0 {
			first++
		}
		if failing[first] {
			return resilience.ErrDiverged
		}
		return nil
	}
}

// TestSnapshotIsolationAcrossRollback is the serving layer's core
// invariant: a slice that fails and rolls back publishes nothing — the
// visible snapshot is pointer-identical to the pre-slice publication,
// and the decomposer's rolled-back state is bit-for-bit equal to it.
func TestSnapshotIsolationAcrossRollback(t *testing.T) {
	stream := testStream(t, 6, 21)
	srv, err := New(Config{
		Dims: stream.Dims,
		Options: core.Options{
			Rank: 3, Seed: 1, TrackFit: true,
			Resilience: &resilience.Config{
				Policy:    resilience.SkipSlice,
				FaultHook: failNthSlices(3, 5),
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	initial := srv.Snapshot()
	if initial == nil || initial.T != 0 {
		t.Fatalf("initial snapshot = %+v, want T=0", initial)
	}

	// Drive the decomposer synchronously (it is quiescent between
	// calls), watching the publication pointer across each slice.
	for i, x := range stream.Slices {
		pre := srv.Snapshot()
		_, err := srv.dec.ProcessSlice(x)
		post := srv.Snapshot()
		switch {
		case err == nil:
			if post == pre {
				t.Fatalf("slice %d committed but no snapshot was published", i)
			}
			if post.T != pre.T+1 {
				t.Fatalf("slice %d: snapshot T %d → %d, want +1", i, pre.T, post.T)
			}
		case errors.Is(err, resilience.ErrSliceSkipped):
			if post != pre {
				t.Fatalf("slice %d rolled back but a snapshot was published (T %d → %d)", i, pre.T, post.T)
			}
			// The rollback must restore the decomposer to exactly the
			// published state: a fresh copy is bit-for-bit equal.
			if !TakeSnapshot(srv.dec, math.NaN()).Equal(pre) {
				t.Fatalf("slice %d: rolled-back state differs from the published snapshot", i)
			}
		default:
			t.Fatalf("slice %d: %v", i, err)
		}
	}
	if got := srv.Snapshot().T; got != 4 {
		t.Fatalf("final snapshot T = %d, want 4 (6 slices, 2 skipped)", got)
	}
}

// TestSnapshotImmutable: mutating the decomposer after publication
// must not change an already-held snapshot.
func TestSnapshotImmutable(t *testing.T) {
	stream := testStream(t, 3, 22)
	srv, err := New(Config{Dims: stream.Dims, Options: core.Options{Rank: 3, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.dec.ProcessSlice(stream.Slices[0]); err != nil {
		t.Fatal(err)
	}
	held := srv.Snapshot()
	copyOf := &FactorSnapshot{
		T: held.T, Dims: held.Dims, Rank: held.Rank,
		S: append([]float64(nil), held.S...),
	}
	for _, f := range held.Factors {
		copyOf.Factors = append(copyOf.Factors, f.Clone())
	}
	for _, x := range stream.Slices[1:] {
		if _, err := srv.dec.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	if !held.Equal(copyOf) {
		t.Fatal("held snapshot mutated by later slices")
	}
	if srv.Snapshot() == held {
		t.Fatal("publication pointer did not advance")
	}
}

// TestSnapshotReconstructBounds: client coordinates are validated.
func TestSnapshotReconstructBounds(t *testing.T) {
	stream := testStream(t, 1, 23)
	srv, err := New(Config{Dims: stream.Dims, Options: core.Options{Rank: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if _, err := snap.ReconstructAt([]int32{0}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := snap.ReconstructAt([]int32{0, int32(stream.Dims[1])}); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	}
	if _, err := snap.ReconstructAt([]int32{0, 0}); err != nil {
		t.Fatalf("valid coordinate rejected: %v", err)
	}
}
