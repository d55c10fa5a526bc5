// Package perfmodel holds the cost models the runtime consults once per
// slice, each a pure function of the measured slice shape and the
// options, so a checkpoint-restored stream replays the same schedule:
// the slice profile (this file) and the in-memory-vs-streamed
// evaluation choice (eval.go). Nothing here keeps state between slices.
// The simulator that regenerates the paper's thread-scaling figures is
// the sub-package sim.
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
}

// Profile measures a SliceProfile from an actual slice into fresh
// storage (ProfileInto is the pooled form).
func Profile(x *sptensor.Tensor) SliceProfile {
	var p SliceProfile
	ProfileInto(&p, x, nil)
	return p
}

// ProfileInto measures a SliceProfile from x into p, reusing p's Modes
// slice and the counts scratch buffer (grown to the longest mode, then
// reused). It returns the scratch for the caller to keep. Unlike
// Profile it allocates nothing in steady state.
func ProfileInto(p *SliceProfile, x *sptensor.Tensor, counts []int32) []int32 {
	n := x.NModes()
	p.NNZ = x.NNZ()
	if cap(p.Modes) < n {
		p.Modes = make([]ModeProfile, n)
	}
	p.Modes = p.Modes[:n]
	for m := 0; m < n; m++ {
		dim := x.Dims[m]
		if cap(counts) < dim {
			counts = make([]int32, dim)
		}
		c := counts[:dim]
		for i := range c {
			c[i] = 0
		}
		for _, i := range x.Inds[m] {
			c[i]++
		}
		nzRows, maxPer := 0, int32(0)
		for _, v := range c {
			if v > 0 {
				nzRows++
			}
			if v > maxPer {
				maxPer = v
			}
		}
		top := 0.0
		if p.NNZ > 0 {
			top = float64(maxPer) / float64(p.NNZ)
		}
		p.Modes[m] = ModeProfile{Dim: dim, NZRows: nzRows, TopRowFrac: top}
	}
	return counts
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
