package spstream

import (
	"math"
	"sort"
)

// RowWeight pairs a factor-matrix row index with its absolute weight in
// one component.
type RowWeight struct {
	Row    int
	Weight float64
}

// TopRows returns the n rows of mode's factor matrix with the largest
// absolute weight in component comp, sorted descending — the
// "top terms per topic" operation of interpretable decompositions. n is
// clamped to the mode length.
func TopRows(d *Decomposer, mode, comp, n int) []RowWeight {
	f := d.Factor(mode)
	if comp < 0 || comp >= f.Cols {
		return nil
	}
	all := make([]RowWeight, f.Rows)
	for i := 0; i < f.Rows; i++ {
		all[i] = RowWeight{Row: i, Weight: math.Abs(f.At(i, comp))}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Weight > all[b].Weight })
	if n > len(all) {
		n = len(all)
	}
	if n < 0 {
		n = 0
	}
	return all[:n]
}

// ComponentStrengths returns, for each component k, the product of the
// factor column norms times |sₜ[k]| for the most recent slice — the
// scale of each rank-1 term in the current model. Components are
// returned in component order.
func ComponentStrengths(d *Decomposer) []float64 {
	k := d.Rank()
	strengths := make([]float64, k)
	s := d.LastS()
	for j := 0; j < k; j++ {
		v := math.Abs(s[j])
		for m := range d.Dims() {
			f := d.Factor(m)
			norm2 := 0.0
			for i := 0; i < f.Rows; i++ {
				x := f.At(i, j)
				norm2 += x * x
			}
			v *= math.Sqrt(norm2)
		}
		strengths[j] = v
	}
	return strengths
}

// RankComponents returns component indices sorted by descending
// ComponentStrengths.
func RankComponents(d *Decomposer) []int {
	strengths := ComponentStrengths(d)
	order := make([]int, len(strengths))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return strengths[order[a]] > strengths[order[b]] })
	return order
}

// ReconstructAt evaluates the current model X̂ₜ = [[A…; sₜ]] at one
// coordinate of the latest slice — useful for spot-checking predictions
// or imputing missing entries. It reads the N rows it needs, brought
// current, so it costs O(N·K²) whatever the mode lengths. A coordinate
// of the wrong length or out of range is an error.
func ReconstructAt(d *Decomposer, coord []int32) (float64, error) {
	return d.Committed().ReconstructAt(d.LastS(), coord)
}
