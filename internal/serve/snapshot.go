// Package serve is the fault-tolerant serving layer: an HTTP daemon
// (cmd/spstreamd) around the live-ingestion pipeline and the resilient
// decomposer, exposing the current model for reads while the stream is
// being solved.
//
// Its three load-bearing properties:
//
//   - Snapshot isolation. Readers never see the solver's in-progress or
//     rolled-back state: after every *committed* slice the decomposer's
//     commit hook publishes a FactorSnapshot of the committed factor
//     version by atomic pointer swap. The snapshot pins that version
//     (core.Version) instead of copying it, and the decomposer never
//     writes a pinned version: its next slices write into a spare. A
//     reader pins it too, from load to release, by load–pin–recheck.
//     A slice that fails, retries, or rolls back publishes nothing, so
//     the visible model always corresponds to a slice boundary that
//     will never be retracted.
//
//   - Backpressure-aware admission. The ingest queue is bounded; when
//     it sheds, the API says so (429 + Retry-After) instead of hanging
//     or lying. Request bodies are size-capped and every handler runs
//     under a deadline with panic containment.
//
//   - A circuit breaker around the solver loop. Consecutive slice
//     failures open it: ingest is refused at the front door (503,
//     counted separately from overload sheds), readiness goes false,
//     and after a cooldown a single probe slice decides whether to
//     close it again.
package serve

import (
	"fmt"
	"math"

	"spstream/internal/core"
	"spstream/internal/dense"
)

// FactorSnapshot is the decomposition state at a committed slice
// boundary. Its factors are the committed core.Version itself, pinned,
// so they stay unwritten while the snapshot is held: any number of
// readers may hold one while the solver advances or rolls back. Every
// snapshot TakeSnapshot or Server.Snapshot returns holds one pin;
// Release drops it, after which the snapshot must not be read. One never
// released costs the decomposer one allocation, never a bit.
type FactorSnapshot struct {
	// T is the number of slices committed into this snapshot.
	T int
	// Dims are the slice mode lengths.
	Dims []int
	// Rank is the decomposition rank K.
	Rank int
	// Factors are the non-temporal factor matrices of the pinned version.
	Factors []*dense.Matrix
	// S is the temporal row sₜ of the newest committed slice.
	S []float64
	// Fit is the newest committed slice's fit (NaN without TrackFit).
	Fit float64

	ver *core.Version // fixed for the snapshot's life
}

// TakeSnapshot returns a snapshot of the decomposer's committed state
// holding one pin on its factor version; Release it when done. It must
// be called while the decomposer is quiescent — in practice from its
// commit hook or the pipeline's consumer callbacks.
func TakeSnapshot(d *core.Decomposer, fit float64) *FactorSnapshot {
	s := newSnapshot(d)
	s.fill(d, fit)
	s.ver.Pin()
	return s
}

// newSnapshot returns a snapshot of d's committed version, not yet
// filled or pinned.
func newSnapshot(d *core.Decomposer) *FactorSnapshot {
	s := &FactorSnapshot{
		Dims: append([]int(nil), d.Dims()...), Rank: d.Rank(),
		Factors: make([]*dense.Matrix, len(d.Dims())), S: make([]float64, d.Rank()), ver: d.Committed(),
	}
	for m := range s.Factors {
		s.Factors[m] = s.ver.Factor(m)
	}
	return s
}

// fill copies the decomposer's slice counter and sₜ, and fit, into s.
func (s *FactorSnapshot) fill(d *core.Decomposer, fit float64) {
	s.T, s.Fit = d.T(), fit
	copy(s.S, d.LastS())
}

// Release drops the pin TakeSnapshot or Server.Snapshot took.
func (s *FactorSnapshot) Release() { s.ver.Release() }

// ReconstructAt evaluates the snapshot's model X̂ₜ = [[A…; sₜ]] at one
// coordinate of the newest slice, with bounds checking (the serving
// layer's trust boundary for client-supplied coordinates).
func (s *FactorSnapshot) ReconstructAt(coord []int32) (float64, error) {
	if len(coord) != len(s.Dims) {
		return 0, fmt.Errorf("serve: want %d coordinates, got %d", len(s.Dims), len(coord))
	}
	for m, c := range coord {
		if c < 0 || int(c) >= s.Dims[m] {
			return 0, fmt.Errorf("serve: coordinate %d out of range for mode %d (dim %d)", c, m, s.Dims[m])
		}
	}
	sum := 0.0
	for k := range s.S {
		p := s.S[k]
		for m := range s.Factors {
			p *= s.Factors[m].At(int(coord[m]), k)
		}
		sum += p
	}
	return sum, nil
}

// Equal reports bit-for-bit equality of two snapshots' numerical state
// (factors, temporal row, and slice counter). NaN fits compare equal to
// NaN. Used by the isolation tests to prove a snapshot taken during a
// rollback is identical to the pre-slice snapshot.
func (s *FactorSnapshot) Equal(o *FactorSnapshot) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.T != o.T || s.Rank != o.Rank || len(s.Dims) != len(o.Dims) ||
		len(s.Factors) != len(o.Factors) || len(s.S) != len(o.S) {
		return false
	}
	for m := range s.Dims {
		if s.Dims[m] != o.Dims[m] {
			return false
		}
	}
	for k := range s.S {
		if math.Float64bits(s.S[k]) != math.Float64bits(o.S[k]) {
			return false
		}
	}
	for m := range s.Factors {
		a, b := s.Factors[m], o.Factors[m]
		if a.Rows != b.Rows || a.Cols != b.Cols {
			return false
		}
		for i := 0; i < a.Rows; i++ {
			ra, rb := a.Row(i), b.Row(i)
			for j := range ra {
				if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
					return false
				}
			}
		}
	}
	return true
}
