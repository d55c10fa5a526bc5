package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"spstream/internal/admm"
)

// The incremental C_z maintenance (Alg. 4 lines 8–11) must be exactly
// equivalent to recomputing C_z,t−1 from scratch each slice.
func TestDirectCzEquivalence(t *testing.T) {
	s := skewedStream(t, 101)
	inc, _ := runStream(t, s, Options{Rank: 4, Algorithm: SpCPStream, Seed: 5, Workers: 1})
	dir, _ := runStream(t, s, Options{Rank: 4, Algorithm: SpCPStream, Seed: 5, Workers: 1, DirectCz: true})
	if d := maxFactorDiff(inc, dir); d > 1e-8 {
		t.Fatalf("incremental vs direct C_z differ by %g", d)
	}
}

// Constrained spCP-stream (the paper's §VII future work) must keep the
// factors feasible and produce fits comparable to the exact constrained
// Optimized algorithm.
func TestConstrainedSpCPFeasibleAndComparable(t *testing.T) {
	s := skewedStream(t, 102)
	opt := Options{
		Rank: 4, Algorithm: SpCPStream, Constraint: admm.NonNeg{},
		ConstrainedSpCP: true, Seed: 5, TrackFit: true,
	}
	spc, resS := runStream(t, s, opt)
	for m := 0; m < 3; m++ {
		for _, v := range spc.Factor(m).Data {
			if v < 0 {
				t.Fatalf("mode %d: negative entry %g", m, v)
			}
		}
	}
	total := 0
	for _, r := range resS {
		total += r.ADMMIters
	}
	if total == 0 {
		t.Fatal("ADMM never ran in constrained spCP")
	}
	// Reference: exact constrained CP-stream with the same seed.
	_, resO := runStream(t, s, Options{
		Rank: 4, Algorithm: Optimized, Constraint: admm.NonNeg{}, Seed: 5, TrackFit: true,
	})
	for i := range resS {
		if math.IsNaN(resS[i].Fit) {
			t.Fatalf("slice %d: NaN fit", i)
		}
		if resS[i].Fit < resO[i].Fit-0.1 {
			t.Fatalf("slice %d: constrained spCP fit %.4f ≪ optimized %.4f", i, resS[i].Fit, resO[i].Fit)
		}
	}
}

func TestConstrainedSpCPValidation(t *testing.T) {
	// Without the opt-in flag the combination stays rejected
	// (paper-faithful behaviour).
	if _, err := NewDecomposer([]int{10, 10}, Options{
		Rank: 2, Algorithm: SpCPStream, Constraint: admm.NonNeg{},
	}); err == nil || !strings.Contains(err.Error(), "ConstrainedSpCP") {
		t.Fatalf("expected opt-in error, got %v", err)
	}
	// Column-norm constraints are not supported on this path.
	if _, err := NewDecomposer([]int{10, 10}, Options{
		Rank: 2, Algorithm: SpCPStream, Constraint: admm.NonNegMaxColNorm{R: 1},
		ConstrainedSpCP: true,
	}); err == nil {
		t.Fatal("column-norm constraint accepted on spCP path")
	}
}

// Checkpoint/restore: interrupting a stream mid-way and restoring into
// a fresh decomposer must continue bit-identically (fixed worker count
// and deterministic kernels).
func TestCheckpointContinuation(t *testing.T) {
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		s := skewedStream(t, 103)
		opt := Options{Rank: 3, Algorithm: alg, Seed: 9, Workers: 1}

		// Uninterrupted reference run.
		ref, _ := runStream(t, s, opt)

		// Interrupted run: half the slices, checkpoint, restore, rest.
		first, err := NewDecomposer(s.Dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		half := s.T() / 2
		for ti := 0; ti < half; ti++ {
			if _, err := first.ProcessSlice(s.Slices[ti]); err != nil {
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
		if second.T() != half {
			t.Fatalf("%v: restored T = %d, want %d", alg, second.T(), half)
		}
		for ti := half; ti < s.T(); ti++ {
			if _, err := second.ProcessSlice(s.Slices[ti]); err != nil {
				t.Fatal(err)
			}
		}
		if d := maxFactorDiff(ref, second); d != 0 {
			t.Fatalf("%v: restored run differs from uninterrupted by %g", alg, d)
		}
		if d := ref.Temporal().MaxAbsDiff(second.Temporal()); d != 0 {
			t.Fatalf("%v: temporal factors differ by %g", alg, d)
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	s := testStream(t, 104, []int{10, 12}, 100, 3)
	d, _ := runStream(t, s, Options{Rank: 2, Seed: 1})
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Wrong dims.
	other, err := NewDecomposer([]int{10, 13}, Options{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(bytes.NewReader(raw)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	// Wrong rank.
	other2, err := NewDecomposer([]int{10, 12}, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := other2.RestoreState(bytes.NewReader(raw)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	// Garbage and truncation.
	ok, err := NewDecomposer([]int{10, 12}, Options{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.RestoreState(strings.NewReader("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := ok.RestoreState(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// A valid restore into a matching decomposer succeeds.
	if err := ok.RestoreState(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if ok.T() != 3 {
		t.Fatalf("restored T = %d", ok.T())
	}
}

// The constrained spCP extension must still beat the explicit
// constrained algorithm on iteration structure: its per-iteration phase
// times exclude full-factor Historical products. We check the weaker,
// robust property that it converges and the breakdown records spCP
// phases (Post > 0, since z rows are materialized and projected).
func TestConstrainedSpCPBreakdown(t *testing.T) {
	s := skewedStream(t, 105)
	opt := Options{
		Rank: 3, Algorithm: SpCPStream, Constraint: admm.NonNeg{},
		ConstrainedSpCP: true, Seed: 2,
	}
	d, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 3; ti++ {
		if _, err := d.ProcessSlice(s.Slices[ti]); err != nil {
			t.Fatal(err)
		}
	}
	bd := d.Breakdown()
	if bd.Times[6] <= 0 { // Historical phase still runs (K×K work)
		t.Fatal("no historical time recorded")
	}
	if bd.Times[1] <= 0 { // Post runs the projection + Gram resync
		t.Fatal("no post time recorded")
	}
}

// The plan-based MTTKRP kernel used by the Optimized algorithm must not
// make the factor trajectory depend on the worker count. The kernel
// itself is bit-identical across worker counts (single writer per
// output row); the dense reductions are worker-order deterministic, so
// trajectories agree to reduction-reordering precision.
func TestPlanKernelWorkerInvariance(t *testing.T) {
	s := skewedStream(t, 106)
	one, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 4, Workers: 1})
	many, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 4, Workers: 3})
	if d := maxFactorDiff(one, many); d > 1e-8 {
		t.Fatalf("worker count changed plan-kernel results by %g", d)
	}
}

// Normalization must not change the model's predictions — it only
// rebalances scale between the factors and sₜ.
func TestNormalizeModelInvariance(t *testing.T) {
	s := skewedStream(t, 107)
	plain, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 6, Workers: 1})
	norm, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 6, Workers: 1, Normalize: true})
	coords := [][]int32{{0, 0, 0}, {5, 100, 10}, {20, 399, 59}}
	for _, coord := range coords {
		a := reconstructAt(plain, coord)
		b := reconstructAt(norm, coord)
		rel := math.Abs(a - b)
		if math.Abs(a) > 1 {
			rel /= math.Abs(a)
		}
		if rel > 1e-4 {
			t.Fatalf("normalization changed the model at %v: %g vs %g", coord, a, b)
		}
	}
}

// reconstructAt evaluates [[A…; sₜ]] at one coordinate.
func reconstructAt(d *Decomposer, coord []int32) float64 {
	sum := 0.0
	for k := 0; k < d.Rank(); k++ {
		p := d.LastS()[k]
		for m := range d.Dims() {
			p *= d.Factor(m).At(int(coord[m]), k)
		}
		sum += p
	}
	return sum
}

// The plan kernel composes with constraints: the constrained Optimized
// path (BF-ADMM row solves fed by plan-based MTTKRP) stays feasible.
func TestPlanKernelComposition(t *testing.T) {
	s := skewedStream(t, 108)
	constrained, err := NewDecomposer(s.Dims, Options{
		Rank: 3, Algorithm: Optimized, Constraint: admm.NonNeg{},
		Seed: 4, MaxIters: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := constrained.ProcessSlice(s.Slices[i]); err != nil {
			t.Fatal(err)
		}
	}
	for m := range s.Dims {
		for _, v := range constrained.Factor(m).Data {
			if v < 0 {
				t.Fatal("plan + constrained produced infeasible factors")
			}
		}
	}
}
