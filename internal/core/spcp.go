package core

import (
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
)

// spcpBufs are the slice body's matrices, owned by the Decomposer and
// grow-only. Per mode: the Ψ workspace psi, sized by beginSlice to the
// rows the body iterates (Iₙ with z = ∅, |nz| otherwise); and, used only
// with a z set, the |nz|×K iterate aNz, its A_{t−1} gather aNzPrev, the
// K×K final transform tFinal and current C_z czCur. tmpKK and gram are
// K×K scratch, moved the gather of the rows that left or entered an nz
// set. Nothing reads one before it is written in full: aNzPrev by its
// gather and aNz by the copy of it in beginZ, psi by every mode's
// MTTKRP, tFinal, tmpKK and czCur by iterateSlice's SolveRowsInto, MulAB
// and MulAtB — MaxIters ≥ 1, so finishZ never sees a previous slice's —
// gram and moved by the GramParallel and gather beside each use.
type spcpBufs struct {
	aNz, aNzPrev, psi, tFinal, czCur []*dense.Matrix
	tmpKK, gram, moved               *dense.Matrix
}

// resized returns m re-sliced to rows×k over its own storage, contents
// unspecified. Storage that is too small is replaced with a quarter's
// headroom, so the creeping nz counts of a stream reallocate a few times
// and then no more.
func resized(m *dense.Matrix, rows, k int) *dense.Matrix {
	if m == nil {
		return dense.NewMatrix(rows, k)
	}
	if cap(m.Data) < rows*k {
		m = dense.NewMatrix(rows+rows/4, k)
	}
	m.Rows, m.Data = rows, m.Data[:rows*k]
	return m
}

// gatherNZ resizes dst to the rows of src listed in idx and copies them.
func gatherNZ(dst, src *dense.Matrix, idx []int32) *dense.Matrix {
	dst = resized(dst, len(idx), src.Cols)
	for r, i := range idx {
		copy(dst.Row(r), src.Row(int(i)))
	}
	return dst
}

// beginZ is beginSlice's half for a z set (Alg. 4 lines 3–11): the
// pooled remap of the slice into nz-row space (ascending local ids — the
// incremental C_z bookkeeping relies on sorted nz sets; the dense LUT
// scratch, nz lists and index columns are reused across slices), the
// A_nz,t−1 gathers the iterate starts from, and C_z,t−1's upkeep.
func (d *Decomposer) beginZ(run *sliceRun) {
	rm, sp := d.remapper.Begin(run.in.x, nil), &d.sp
	for m, a := range d.cur.a {
		sp.aNzPrev[m] = gatherNZ(sp.aNzPrev[m], a, rm.NZ[m])
		sp.aNz[m] = resized(sp.aNz[m], len(rm.NZ[m]), d.k)
		sp.aNz[m].CopyFrom(sp.aNzPrev[m])
		if d.prevNZ == nil || d.opt.DirectCz {
			// First slice (or the DirectCz ablation): C_z,t−1 =
			// C − Gram(A_nz) from scratch.
			dense.GramParallel(sp.gram, sp.aNzPrev[m], d.opt.Workers)
			dense.Sub(d.cz[m], d.c[m], sp.gram)
			continue
		}
		// Algorithm 4 lines 8–11: adjust C_z,t−1 by the rows that
		// left (add) and entered (subtract) the nz set.
		if left := mttkrp.SetDiff(d.prevNZ[m], rm.NZ[m]); len(left) > 0 {
			sp.moved = gatherNZ(sp.moved, a, left)
			dense.GramParallel(sp.gram, sp.moved, d.opt.Workers)
			dense.Add(d.cz[m], d.cz[m], sp.gram)
		}
		if entered := mttkrp.SetDiff(rm.NZ[m], d.prevNZ[m]); len(entered) > 0 {
			sp.moved = gatherNZ(sp.moved, a, entered)
			dense.GramParallel(sp.gram, sp.moved, d.opt.Workers)
			dense.Sub(d.cz[m], d.cz[m], sp.gram)
		}
	}
	run.rm, run.kin, run.a, run.prev, run.fac = rm, sliceData{x: rm.X}, sp.aNz, sp.aNzPrev, sp.aNz
}

// finishZ is finishSlice's half for a z set: it materializes
// A = A_z ⊕ A_nz (Alg. 4 line 34) into run.next and records the nz sets
// for the next slice's C_z upkeep. run.next is the committed version
// itself when nothing pins it — nothing needs A_{t−1} after the slice —
// else the spare, every row of which is written here: the z rows by the
// transform of the committed ones, the nz rows by the scatter.
func (d *Decomposer) finishZ(run *sliceRun) {
	rm, sp := run.rm, &d.sp
	run.next = d.cur
	if d.cur.pinned() {
		run.next = d.claimSpare()
	}
	for m, a := range run.next.a {
		isNZ := d.markNZ(a.Rows, rm.NZ[m])
		projected := d.applyZTransform(a, d.cur.a[m], isNZ, sp.tFinal[m])
		rm.ScatterMode(a, sp.aNz[m], m)
		if projected {
			// The z rows changed beyond the linear transform, so
			// re-synchronize C_z (and with it C) from the
			// materialized rows — one masked sweep per slice.
			d.rowSweep(coreArgs{a: a, skip: isNZ}, d.cz[m], nil)
			dense.GramParallel(sp.gram, sp.aNz[m], d.opt.Workers)
			dense.Add(d.c[m], d.cz[m], sp.gram)
		} else {
			d.cz[m].CopyFrom(sp.czCur[m])
		}
		d.unmarkNZ(rm.NZ[m])
	}
	if d.prevNZ == nil {
		d.prevNZ = make([][]int32, d.n)
	}
	// Deep copy: the pooled remapper reuses rm.NZ's storage on the
	// next Begin, so aliasing it here would corrupt the incremental
	// C_z bookkeeping of the following slice.
	for m := range rm.NZ {
		d.prevNZ[m] = append(d.prevNZ[m][:0], rm.NZ[m]...)
	}
}

// markNZ returns the Decomposer's row mask, grown to rows entries, with
// exactly the rows of nz set. The mask is all-false between uses:
// unmarkNZ must follow, so a slice pays O(|nz|) per mode for it instead
// of allocating and zeroing O(Iₙ).
func (d *Decomposer) markNZ(rows int, nz []int32) []bool {
	if len(d.isNZ) < rows {
		d.isNZ = make([]bool, rows)
	}
	for _, i := range nz {
		d.isNZ[i] = true
	}
	return d.isNZ[:rows]
}

// unmarkNZ clears the rows markNZ set.
func (d *Decomposer) unmarkNZ(nz []int32) {
	for _, i := range nz {
		d.isNZ[i] = false
	}
}

// applyZTransform writes every z row of the full factor dst from the same
// row of src, on the pool: row ← row·T (Eq. 6 with A_z,t−1 being the
// untouched rows of src); dst may be src. isNZ marks the rows to skip;
// all other rows are transformed, each on its own, so no bit depends on
// the partition. In the constrained extension the materialized z rows
// are additionally projected onto the constraint set; the return value
// reports whether that projection ran (the caller must then
// re-synchronize the Grams).
func (d *Decomposer) applyZTransform(dst, src *dense.Matrix, isNZ []bool, t *dense.Matrix) bool {
	for w := len(d.zRows); w < parallel.ClampWorkers(d.opt.Workers, dst.Rows); w++ {
		d.zRows = append(d.zRows, *dense.NewMatrix(1, d.k))
	}
	d.pargs = coreArgs{a: dst, prev: src, q: t, skip: isNZ, con: d.opt.Constraint, rows: d.zRows}
	d.pool.Do(dst.Rows, d.opt.Workers, &d.pargs, zTransformBody)
	d.pargs = coreArgs{}
	return d.opt.Constraint != nil
}

func zTransformBody(ctx any, w int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	tmp := &pa.rows[w]
	for i := r.Lo; i < r.Hi; i++ {
		if pa.skip[i] {
			continue
		}
		clear(tmp.Data)
		dense.AddMulRow(tmp.Data, pa.prev.Row(i), pa.q)
		if pa.con != nil {
			pa.con.Project(tmp, tmp, nil, nil, 1)
		}
		copy(pa.a.Row(i), tmp.Data)
	}
}
