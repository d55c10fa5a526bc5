// Package perfmodel holds the cost models the runtime consults once per
// slice, each a pure function of the measured slice shape and the
// options, so a checkpoint-restored stream replays the same schedule:
// the slice profile (this file), the plan-vs-CSF kernel choice
// (select.go) and the in-memory-vs-streamed evaluation choice
// (eval.go). Nothing here keeps state between slices. The
// simulator that regenerates the paper's thread-scaling figures is the
// sub-package sim.
package perfmodel

import "spstream/internal/sptensor"

// ModeProfile summarizes one mode of a time slice.
type ModeProfile struct {
	Dim        int     // full mode length Iₙ
	NZRows     int     // |nz(n)| distinct rows touched
	TopRowFrac float64 // fraction of nonzeros hitting the hottest row
}

// SliceProfile summarizes a time slice.
type SliceProfile struct {
	NNZ   int
	Modes []ModeProfile
	// Sorted reports that the slice is stored in lexicographic
	// (mode 0, 1, …) order — what sptensor.Coalesce produces — which
	// unlocks the CSF engine's reduced-pass builds; Pair01 is the
	// measured distinct (mode0, mode1) coordinate-pair count (0 when
	// unsorted), replacing the birthday estimate for the level-1 node
	// counts of trees rooted at modes 0 and 1.
	Sorted bool
	Pair01 int
}

// Profile measures a SliceProfile from an actual slice into fresh
// storage (Profiler.Profile is the pooled form).
func Profile(x *sptensor.Tensor) SliceProfile {
	var p SliceProfile
	new(Profiler).Profile(&p, x)
	return p
}

// TotalDim returns ΣIₙ over modes.
func (s SliceProfile) TotalDim() int {
	t := 0
	for _, m := range s.Modes {
		t += m.Dim
	}
	return t
}

// TotalNZRows returns Σ|nz(n)| over modes.
func (s SliceProfile) TotalNZRows() int {
	t := 0
	for _, m := range s.Modes {
		t += m.NZRows
	}
	return t
}
