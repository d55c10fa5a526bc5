package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// TestConstrainedSpCPValidation: spCP-stream rejects every constraint
// (paper §VII) — its z rows move only by a linear transform.
func TestConstrainedSpCPValidation(t *testing.T) {
	for _, con := range []admm.Constraint{admm.NonNeg{}, admm.L1{Lambda: 0.01}, admm.NonNegMaxColNorm{R: 1}} {
		if _, err := NewDecomposer([]int{10, 10}, Options{
			Rank: 2, Algorithm: SpCPStream, Constraint: con,
		}); err == nil || !strings.Contains(err.Error(), "does not support constraints") {
			t.Fatalf("%T: got %v, want the spCP constraint rejection", con, err)
		}
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
		ref, refS := runStreamS(t, s, opt)

		// Interrupted run: half the slices, checkpoint, restore, rest.
		first, err := NewDecomposer(s.Dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		half := s.T() / 2
		var rows [][]float64 // S across the restore, as a caller collects it
		for ti := 0; ti < half; ti++ {
			if _, err := first.ProcessSlice(s.Slices[ti]); err != nil {
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
		if second.T() != half {
			t.Fatalf("%v: restored T = %d, want %d", alg, second.T(), half)
		}
		for ti := half; ti < s.T(); ti++ {
			if _, err := second.ProcessSlice(s.Slices[ti]); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, slices.Clone(second.LastS()))
		}
		if d := maxFactorDiff(ref, second); d != 0 {
			t.Fatalf("%v: restored run differs from uninterrupted by %g", alg, d)
		}
		if d := refS.MaxAbsDiff(dense.FromRows(rows)); d != 0 {
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

// No bit of a run depends on the worker count for a fixed kernel
// schedule: the kernels give every output row one writer, and every sum —
// the Grams, the row sweep, BF-ADMM and the time mode — is keyed by fixed
// blocks. Factors, sₜ and G must be bit-equal at Workers 1/2/3/7 for both
// algorithms, unconstrained and NonNeg, resident and streamed from
// MemBlocks, on slices of several time-mode spans with a mode longer than
// one Gram block.
func TestPlanKernelWorkerInvariance(t *testing.T) {
	dims := []int{30, 700, 40}
	s := testStream(t, 106, dims, 9000, 3)
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		for _, con := range []admm.Constraint{nil, admm.NonNeg{}} {
			if alg == SpCPStream && con != nil {
				continue // rejected (paper §VII)
			}
			for _, streamed := range []bool{false, true} {
				var ref *Decomposer
				for _, workers := range []int{1, 2, 3, 7} {
					name := fmt.Sprintf("%v constrained=%v streamed=%v W=%d", alg, con != nil, streamed, workers)
					opt := Options{
						Rank: 5, Algorithm: alg, Constraint: con,
						Seed: 4, Workers: workers,
					}
					if streamed {
						opt.MemBudget = 1 // every slice streams
					}
					d, err := NewDecomposer(dims, opt)
					if err != nil {
						t.Fatal(err)
					}
					for ti, x := range s.Slices {
						if streamed {
							src, serr := sptensor.SplitBlocks(x, 1000)
							if serr != nil {
								t.Fatal(serr)
							}
							_, err = d.ProcessBlockSlice(src)
						} else {
							_, err = d.ProcessSlice(x)
						}
						if err != nil {
							t.Fatalf("%s slice %d: %v", name, ti, err)
						}
					}
					if ref == nil {
						ref = d
						continue
					}
					for n := range dims {
						sameMatrixBits(t, fmt.Sprintf("%s factor %d", name, n), d.Factor(n), ref.Factor(n))
					}
					for j, v := range d.LastS() {
						if math.Float64bits(v) != math.Float64bits(ref.LastS()[j]) {
							t.Fatalf("%s: s[%d] = %v, %v at one worker", name, j, v, ref.LastS()[j])
						}
					}
					sameMatrixBits(t, name+" G", d.g, ref.g)
				}
			}
		}
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
