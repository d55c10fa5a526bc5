package mttkrp

import (
	"sort"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// Remapped is a time slice whose coordinates have been renumbered into
// the dense local index space of its nonzero rows: mode m's coordinates
// lie in [0, len(NZ[m])) and NZ[m][local] recovers the global row. This
// is the pre-processing step of spCP-stream (paper §V-D): it is built
// once per slice and amortized over all inner iterations, and it is what
// lets spMTTKRP access only the gathered A_nz matrices — a footprint of
// |nz(n)|·K instead of Iₙ·K rows (paper §VI-E1).
type Remapped struct {
	// X holds the renumbered slice; X.Dims[m] == len(NZ[m]).
	X *sptensor.Tensor
	// NZ[m] is the sorted list of global row indices present in mode m
	// (the nz(n) sets).
	NZ [][]int32
}

// Remap builds the local-index view of a slice. Cost is O(nnz·N) plus
// an O(dim) id-assignment scan per mode. Convenience wrapper over a
// throwaway Remapper; streaming callers hold a Remapper so the dense
// scratch (and the result's storage) is reused across slices.
func Remap(x *sptensor.Tensor) *Remapped {
	var r Remapper
	return r.Begin(x, nil)
}

// Remapper builds Remapped views with pooled storage: a dense
// global→local lookup column per mode (replacing the map[int32]int32
// the original Remap allocated per mode per slice), plus the reused NZ
// lists and local index columns. After the buffers have grown to the
// stream's working size, Begin allocates nothing.
type Remapper struct {
	lut [][]int32 // per mode: global row → local id, -1 empty, -2 marked
	rm  Remapped
	x   sptensor.Tensor // backing store for rm.X
}

// Begin remaps x into the pooled local view, invalidating the result
// of the previous Begin (callers needing the previous slice's NZ sets
// across Begin calls must copy them out). The returned value's Vals
// alias x's — values are untouched by renumbering — so x must stay
// alive and unmodified while the view is in use.
//
// hotFirst optionally overrides the local id order per mode: nil (or a
// nil entry) assigns ids in ascending global-row order, which keeps a
// lexicographically sorted slice sorted and NZ[m] sorted ascending (the
// invariant the SetDiff bookkeeping relies on). A non-nil entry
// must be a full permutation of the mode's rows (pos → global row);
// rows then get local ids in that order, NZ[m] is in permutation order,
// and the local slice is no longer sorted.
func (r *Remapper) Begin(x *sptensor.Tensor, hotFirst [][]int32) *Remapped {
	n := x.NModes()
	nnz := x.NNZ()
	if cap(r.lut) < n {
		r.lut = make([][]int32, n)
		r.rm.NZ = make([][]int32, n)
		r.x.Dims = make([]int, n)
		r.x.Inds = make([][]int32, n)
	}
	r.lut = r.lut[:n]
	r.rm.NZ = r.rm.NZ[:n]
	r.x.Dims = r.x.Dims[:n]
	r.x.Inds = r.x.Inds[:n]
	for m := 0; m < n; m++ {
		dim := x.Dims[m]
		lut := r.lut[m]
		if cap(lut) < dim {
			lut = make([]int32, dim)
			for i := range lut {
				lut[i] = -1
			}
		} else {
			// Targeted reset: only the previous slice's nz rows were
			// ever set (the buffer may be oversized for this mode if
			// dims changed — still fine, stale rows beyond dim are
			// reset too).
			lut = lut[:cap(lut)]
			for _, g := range r.rm.NZ[m] {
				if int(g) < len(lut) {
					lut[g] = -1
				}
			}
		}
		lut = lut[:dim]

		// Mark the rows this slice touches …
		for _, g := range x.Inds[m] {
			if lut[g] == -1 {
				lut[g] = -2
			}
		}
		// … then assign local ids in ascending global order (one O(dim)
		// scan) or in the caller's hot-first order.
		nz := r.rm.NZ[m][:0]
		if hotFirst != nil && m < len(hotFirst) && hotFirst[m] != nil {
			for _, g := range hotFirst[m] {
				if lut[g] == -2 {
					lut[g] = int32(len(nz))
					nz = append(nz, g)
				}
			}
		} else {
			for g := int32(0); int(g) < dim; g++ {
				if lut[g] == -2 {
					lut[g] = int32(len(nz))
					nz = append(nz, g)
				}
			}
		}
		r.rm.NZ[m] = nz
		r.x.Dims[m] = len(nz)

		// Translate the index column.
		col := r.x.Inds[m]
		if cap(col) < nnz {
			col = make([]int32, nnz)
		}
		col = col[:nnz]
		src := x.Inds[m]
		for e, g := range src {
			col[e] = lut[g]
		}
		r.x.Inds[m] = col
		r.lut[m] = lut
	}
	r.x.Vals = x.Vals
	r.rm.X = &r.x
	return &r.rm
}

// GatherFactors extracts the A_nz matrices for every mode: out[m] is the
// len(NZ[m])×K gather of full[m]'s nz rows.
func (rm *Remapped) GatherFactors(full []*dense.Matrix) []*dense.Matrix {
	out := make([]*dense.Matrix, len(full))
	for m, f := range full {
		idx := make([]int, len(rm.NZ[m]))
		for i, g := range rm.NZ[m] {
			idx[i] = int(g)
		}
		out[m] = dense.GatherRows(f, idx)
	}
	return out
}

// GatherMode refreshes a single mode's gather in place (the per-mode
// compact-factor refresh after a factor update).
func (rm *Remapped) GatherMode(dst, full *dense.Matrix, mode int) {
	gatherInt32(dst, full, rm.NZ[mode])
}

func gatherInt32(dst, src *dense.Matrix, idx []int32) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("mttkrp: gather shape mismatch")
	}
	for r, i := range idx {
		copy(dst.Row(r), src.Row(int(i)))
	}
}

// ScatterMode writes the len(NZ[mode])×K matrix src back into the nz
// rows of the full factor matrix (the ⊕ recombination).
func (rm *Remapped) ScatterMode(full, src *dense.Matrix, mode int) {
	idx := rm.NZ[mode]
	if src.Rows != len(idx) {
		panic("mttkrp: scatter shape mismatch")
	}
	for r, i := range idx {
		copy(full.Row(int(i)), src.Row(r))
	}
}

// SetDiff returns the elements of a not present in b; both inputs must
// be sorted ascending. Used for the nz(n)ₜ₋₁ \ nz(n) bookkeeping of
// Algorithm 4 (lines 9–10).
func SetDiff(a, b []int32) []int32 {
	out := make([]int32, 0)
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] == b[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

// SortedInt32 reports whether s is sorted ascending (test helper).
func SortedInt32(s []int32) bool {
	return sort.SliceIsSorted(s, func(a, b int) bool { return s[a] < s[b] })
}
