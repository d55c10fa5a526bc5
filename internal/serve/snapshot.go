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
// released costs the decomposer one allocation, never a bit. The version
// stores its z side lazily, so every factor read goes through Row or
// Factor, which bring rows current.
type FactorSnapshot struct {
	// T is the number of slices committed into this snapshot.
	T int
	// Dims are the slice mode lengths.
	Dims []int
	// Rank is the decomposition rank K.
	Rank int
	// S is the temporal row sₜ of the newest committed slice.
	S []float64
	// Fit is the newest committed slice's fit (NaN for an empty slice).
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
	return &FactorSnapshot{
		Dims: append([]int(nil), d.Dims()...), Rank: d.Rank(),
		S: make([]float64, d.Rank()), ver: d.Committed(),
	}
}

// fill copies the decomposer's slice counter and sₜ, and fit, into s.
func (s *FactorSnapshot) fill(d *core.Decomposer, fit float64) {
	s.T, s.Fit = d.T(), fit
	copy(s.S, d.LastS())
}

// Release drops the pin TakeSnapshot or Server.Snapshot took.
func (s *FactorSnapshot) Release() { s.ver.Release() }

// Row writes row i of mode m's factor into dst (len Rank) and returns
// it: O(Rank²).
func (s *FactorSnapshot) Row(m, i int, dst []float64) []float64 { return s.ver.Row(m, i, dst) }

// Factor returns mode m's factor matrix, valid until Release (do not
// modify it): the pinned storage when the version holds every row
// current, else a copy brought current.
func (s *FactorSnapshot) Factor(m int) *dense.Matrix { return s.ver.Factor(m) }

// ReconstructAt evaluates the snapshot's model X̂ₜ = [[A…; sₜ]] at one
// coordinate of the newest slice, with bounds checking (the serving
// layer's trust boundary for client-supplied coordinates).
func (s *FactorSnapshot) ReconstructAt(coord []int32) (float64, error) {
	return s.ver.ReconstructAt(s.S, coord)
}

// Equal reports bit-for-bit equality of two snapshots' numerical state
// (factors, temporal row, and slice counter). NaN fits compare equal to
// NaN. Used by the isolation tests to prove a snapshot taken during a
// rollback is identical to the pre-slice snapshot.
func (s *FactorSnapshot) Equal(o *FactorSnapshot) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.T != o.T || s.Rank != o.Rank || len(s.Dims) != len(o.Dims) || len(s.S) != len(o.S) {
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
	ra, rb := make([]float64, s.Rank), make([]float64, s.Rank)
	for m, dim := range s.Dims {
		for i := 0; i < dim; i++ {
			s.Row(m, i, ra)
			o.Row(m, i, rb)
			for j := range ra {
				if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
					return false
				}
			}
		}
	}
	return true
}
