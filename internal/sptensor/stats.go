package sptensor

import "fmt"

// ModeStats summarizes how a time slice's nonzeros are distributed over
// one mode — the quantities that drive spCP-stream's advantage (paper
// §V-A and Fig. 1).
type ModeStats struct {
	Mode        int
	Dim         int     // mode length I_n
	NNZ         int     // nonzeros in the slice
	NonzeroRows int     // |nz(n)|: distinct index values present
	ZeroRowFrac float64 // fraction of rows never touched (the A_z share)
	MaxPerRow   int     // heaviest row
}

// StatsForMode computes ModeStats for one mode of a slice.
func StatsForMode(t *Tensor, mode int) ModeStats {
	counts := make(map[int32]int, 1024)
	maxPer := 0
	for _, i := range t.Inds[mode] {
		counts[i]++
		if counts[i] > maxPer {
			maxPer = counts[i]
		}
	}
	dim := t.Dims[mode]
	zeroFrac := 0.0
	if dim > 0 {
		zeroFrac = float64(dim-len(counts)) / float64(dim)
	}
	return ModeStats{
		Mode:        mode,
		Dim:         dim,
		NNZ:         t.NNZ(),
		NonzeroRows: len(counts),
		ZeroRowFrac: zeroFrac,
		MaxPerRow:   maxPer,
	}
}

func (s ModeStats) String() string {
	return fmt.Sprintf("mode %d: dim=%d nnz=%d nzRows=%d zeroFrac=%.4f maxPerRow=%d",
		s.Mode, s.Dim, s.NNZ, s.NonzeroRows, s.ZeroRowFrac, s.MaxPerRow)
}

// Histogram bins the nonzero index values of one mode into `bins`
// equal-width buckets over [0, dim) — the data behind paper Fig. 1. The
// returned slice has length bins and sums to NNZ.
func Histogram(t *Tensor, mode, bins int) []int {
	if bins < 1 {
		bins = 1
	}
	out := make([]int, bins)
	dim := t.Dims[mode]
	if dim == 0 {
		return out
	}
	for _, i := range t.Inds[mode] {
		b := int(int64(i) * int64(bins) / int64(dim))
		if b >= bins {
			b = bins - 1
		}
		out[b]++
	}
	return out
}

// OccupiedSpan returns the fraction of the mode's index range spanned by
// the occupied histogram buckets — a scalar summary of Fig. 1's
// "clustered vs spread" distinction.
func OccupiedSpan(t *Tensor, mode, bins int) float64 {
	h := Histogram(t, mode, bins)
	occupied := 0
	for _, c := range h {
		if c > 0 {
			occupied++
		}
	}
	return float64(occupied) / float64(len(h))
}
