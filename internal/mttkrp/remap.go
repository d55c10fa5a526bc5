package mttkrp

import (
	"slices"

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

// Remapper builds Remapped views with pooled storage: a dense
// global→local lookup column per mode (in place of a map[int32]int32
// per mode per slice), plus the reused NZ
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
// alive and unmodified while the view is in use. Local ids follow
// ascending global rows, which keeps a lexicographically sorted slice
// sorted and NZ[m] sorted ascending.
//
// The variadic argument is ignored: it is the slot of a deleted
// hot-first order that bench/ still passes as nil.
func (r *Remapper) Begin(x *sptensor.Tensor, _ ...[][]int32) *Remapped {
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

		// Mark and collect the rows this slice touches …
		nz := r.rm.NZ[m][:0]
		for _, g := range x.Inds[m] {
			if lut[g] == -1 {
				lut[g] = -2
				nz = append(nz, g)
			}
		}
		// … then assign local ids in ascending global order (a sort of
		// the touched rows, so no pass over all dim).
		slices.Sort(nz)
		for l, g := range nz {
			lut[g] = int32(l)
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

// GatherMode refreshes a single mode's gather in place (the per-mode
// compact-factor refresh after a factor update).
func (rm *Remapped) GatherMode(dst, full *dense.Matrix, mode int) {
	idx := rm.NZ[mode]
	if dst.Rows != len(idx) || dst.Cols != full.Cols {
		panic("mttkrp: gather shape mismatch")
	}
	for r, i := range idx {
		copy(dst.Row(r), full.Row(int(i)))
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
