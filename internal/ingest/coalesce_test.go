package ingest

import (
	"testing"

	"spstream/internal/core"
	"spstream/internal/synth"
)

// TestCoalescedStreamConvergesClose is the model-quality half of the
// Coalesce policy's contract: merging adjacent windows into coarser
// slices (what the policy does under overload) must yield a model
// close to the undegraded one. It is fully deterministic — the merge
// schedule is fixed (every adjacent pair), not timing-dependent.
func TestCoalescedStreamConvergesClose(t *testing.T) {
	// Denser slices than the throughput harness: per-slice fit on very
	// sparse windows is dominated by sampling noise, which would
	// drown the comparison this test is about.
	s, err := synth.Generate(synth.Config{
		Name:        "coalesce",
		Dists:       []synth.IndexDist{synth.Uniform{N: 25}, synth.Uniform{N: 30}},
		T:           24,
		NNZPerSlice: 4000,
		Values:      synth.ValuePlanted,
		PlantedRank: 3,
		NoiseStd:    0.01,
		Seed:        21,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Rank: 4, Algorithm: core.Optimized, Seed: 3}

	full, err := core.NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var fullFits []float64
	for _, x := range s.Slices {
		res, err := full.ProcessSlice(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		fullFits = append(fullFits, res.Fit)
	}

	// Coalesce adjacent pairs exactly as queue.push does under the
	// Coalesce policy: merge, then re-coalesce duplicates.
	coarse, err := core.NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var coarseFits []float64
	for i := 0; i < len(s.Slices); i += 2 {
		merged := s.Slices[i].Clone()
		if i+1 < len(s.Slices) {
			if err := merged.Merge(s.Slices[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := coarse.ProcessSlice(merged)
		if err != nil {
			t.Fatal(err)
		}
		coarseFits = append(coarseFits, res.Fit)
	}

	mean := func(v []float64) float64 {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	mf, mc := mean(fullFits), mean(coarseFits)
	if mf < 0.5 {
		t.Fatalf("undegraded run fits poorly (%.3f); fixture broken", mf)
	}
	// The coarser windows still come from the same planted model, so
	// the coalesced run must track the undegraded fit closely.
	if mc < mf-0.05 {
		t.Fatalf("coalesced fit %.4f much worse than undegraded %.4f", mc, mf)
	}
	// Sanity: coalescing preserved the total event mass.
	var nnzFull, nnzCoarse float64
	for _, x := range s.Slices {
		for _, v := range x.Vals {
			nnzFull += v
		}
	}
	for i := 0; i < len(s.Slices); i += 2 {
		merged := s.Slices[i].Clone()
		if i+1 < len(s.Slices) {
			if err := merged.Merge(s.Slices[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range merged.Vals {
			nnzCoarse += v
		}
	}
	if diff := nnzFull - nnzCoarse; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("coalescing changed total value mass by %g", diff)
	}
}
