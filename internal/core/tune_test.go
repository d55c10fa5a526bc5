package core

import (
	"testing"

	"spstream/internal/admm"
	"spstream/internal/synth"
)

func TestSetMaxItersFloorAndEffect(t *testing.T) {
	s, err := synth.Generate(synth.Config{
		Name:        "tune",
		Dists:       []synth.IndexDist{synth.Uniform{N: 20}, synth.Uniform{N: 25}},
		T:           4,
		NNZPerSlice: 300,
		Values:      synth.ValuePlanted,
		PlantedRank: 3,
		NoiseStd:    0.01,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: Optimized, Seed: 1, Tol: 1e-12, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxIters() != 10 {
		t.Fatalf("MaxIters = %d, want 10", d.MaxIters())
	}
	d.SetMaxIters(0)
	if d.MaxIters() != 1 {
		t.Fatalf("SetMaxIters floor: got %d, want 1", d.MaxIters())
	}
	res, err := d.ProcessSlice(s.Slices[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 {
		t.Fatalf("degraded slice ran %d iterations, want 1", res.Iters)
	}
	d.SetMaxIters(10)
	res, err = d.ProcessSlice(s.Slices[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters < 2 {
		t.Fatalf("restored slice ran %d iterations, want ≥ 2", res.Iters)
	}
}

func TestSetADMMMaxIters(t *testing.T) {
	d, err := NewDecomposer([]int{10, 10}, Options{Rank: 3, Algorithm: Optimized, Constraint: admm.NonNeg{}, ADMMMaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	if d.ADMMMaxIters() != 40 {
		t.Fatalf("ADMMMaxIters = %d, want 40", d.ADMMMaxIters())
	}
	d.SetADMMMaxIters(-3)
	if d.ADMMMaxIters() != 1 {
		t.Fatalf("SetADMMMaxIters floor: got %d, want 1", d.ADMMMaxIters())
	}
}

// TestSetAlgorithmMidStream switches Optimized → spCP-stream halfway
// through a stream and checks the model matches an all-Optimized run:
// the degradation ladder's algorithm rung must not change the model,
// only its cost.
func TestSetAlgorithmMidStream(t *testing.T) {
	s, err := synth.Generate(synth.Config{
		Name:        "tune",
		Dists:       []synth.IndexDist{synth.Uniform{N: 20}, synth.Uniform{N: 25}},
		T:           8,
		NNZPerSlice: 300,
		Values:      synth.ValuePlanted,
		PlantedRank: 3,
		NoiseStd:    0.01,
		Seed:        12,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Rank: 4, Algorithm: Optimized, Seed: 5, Workers: 2}
	ref, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	switching, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range s.Slices {
		if _, err := ref.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
		if i == len(s.Slices)/2 {
			if err := switching.SetAlgorithm(SpCPStream); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := switching.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	if got := switching.Algorithm(); got != SpCPStream {
		t.Fatalf("Algorithm() = %v after switch", got)
	}
	if d := maxFactorDiff(ref, switching); d > 1e-4 {
		t.Fatalf("mid-stream Optimized→spCP switch drifted from all-Optimized run: max factor diff %g", d)
	}
	// And back down the ladder: spCP → Optimized, again without drift.
	if err := switching.SetAlgorithm(Optimized); err != nil {
		t.Fatal(err)
	}
	extra, err := synth.GenerateSlice(synth.Config{
		Name:        "tune",
		Dists:       []synth.IndexDist{synth.Uniform{N: 20}, synth.Uniform{N: 25}},
		T:           9,
		NNZPerSlice: 300,
		Values:      synth.ValuePlanted,
		PlantedRank: 3,
		NoiseStd:    0.01,
		Seed:        12,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessSlice(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := switching.ProcessSlice(extra.Clone()); err != nil {
		t.Fatal(err)
	}
	if d := maxFactorDiff(ref, switching); d > 1e-4 {
		t.Fatalf("switch back to Optimized drifted: max factor diff %g", d)
	}
}

func TestSetAlgorithmRejectsConstrainedSpCP(t *testing.T) {
	d, err := NewDecomposer([]int{10, 10}, Options{Rank: 3, Algorithm: Optimized, Constraint: admm.NonNeg{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetAlgorithm(SpCPStream); err == nil {
		t.Fatal("constrained decomposer accepted a switch to spCP-stream")
	}
	if d.Algorithm() != Optimized {
		t.Fatalf("failed switch mutated the algorithm: %v", d.Algorithm())
	}
}
