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
// tmpKK again by finishZ's MulAB, gram and moved by the GramParallel and
// gather beside each use.
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

// gatherRows resizes dst to the rows of v's mode n listed in idx and
// writes them, brought current, on the pool. Each row is transformed on
// its own, so no bit depends on the partition. Allocation-free via
// d.pargs.
func (d *Decomposer) gatherRows(dst *dense.Matrix, v *Version, n int, idx []int32) *dense.Matrix {
	dst = resized(dst, len(idx), v.a[n].Cols)
	d.pargs = coreArgs{a: dst, ver: v, mode: n, idx: idx}
	d.pool.Do(len(idx), d.opt.Workers, &d.pargs, gatherBody)
	d.pargs = coreArgs{}
	return dst
}

func gatherBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	for j := r.Lo; j < r.Hi; j++ {
		pa.ver.Row(pa.mode, int(pa.idx[j]), pa.a.Row(j))
	}
}

// gatherEntered resizes dst to the rows of nz that prev lacks (both
// ascending) and copies them from aNz, nz's gather.
func gatherEntered(dst, aNz *dense.Matrix, nz, prev []int32) *dense.Matrix {
	dst = resized(dst, len(nz), aNz.Cols)
	r, p := 0, 0
	for j, i := range nz {
		for p < len(prev) && prev[p] < i {
			p++
		}
		if p < len(prev) && prev[p] == i {
			continue
		}
		copy(dst.Row(r), aNz.Row(j))
		r++
	}
	dst.Rows, dst.Data = r, dst.Data[:r*dst.Cols]
	return dst
}

// beginZ is beginSlice's half for a z set (Alg. 4 lines 3–11): the
// pooled remap of the slice into nz-row space (ascending local ids — the
// incremental C_z bookkeeping relies on sorted nz sets; the dense LUT
// scratch, nz lists and index columns are reused across slices), the
// A_nz,t−1 gathers the iterate starts from — the only rows of A_{t−1} a
// non-flush slice brings current — and C_z,t−1's upkeep. The rows that
// left the nz set were written by the previous slice, so they are stored
// current; the rows that entered it are read from the gather.
func (d *Decomposer) beginZ(run *sliceRun) {
	rm, sp, v := d.remapper.Begin(run.in.x), &d.sp, d.cur
	for m := range v.a {
		nz := rm.NZ[m]
		sp.aNzPrev[m] = d.gatherRows(sp.aNzPrev[m], v, m, nz)
		d.zRowsRead += len(nz)
		sp.aNz[m] = resized(sp.aNz[m], len(nz), d.k)
		sp.aNz[m].CopyFrom(sp.aNzPrev[m])
		if d.prevNZ == nil || d.directCz {
			// First slice (or the from-scratch cross-check): C_z,t−1 =
			// C − Gram(A_nz).
			dense.GramParallel(sp.gram, sp.aNzPrev[m], d.opt.Workers)
			dense.Sub(d.cz[m], d.c[m], sp.gram)
			continue
		}
		// Algorithm 4 lines 8–11: adjust C_z,t−1 by the rows that
		// left (add) and entered (subtract) the nz set.
		if left := mttkrp.SetDiff(d.prevNZ[m], nz); len(left) > 0 {
			sp.moved = d.gatherRows(sp.moved, v, m, left)
			dense.GramParallel(sp.gram, sp.moved, d.opt.Workers)
			dense.Add(d.cz[m], d.cz[m], sp.gram)
		}
		if sp.moved = gatherEntered(sp.moved, sp.aNzPrev[m], nz, d.prevNZ[m]); sp.moved.Rows > 0 {
			dense.GramParallel(sp.gram, sp.moved, d.opt.Workers)
			dense.Sub(d.cz[m], d.cz[m], sp.gram)
		}
	}
	run.rm, run.kin, run.a, run.prev, run.fac = rm, sliceData{x: rm.X}, sp.aNz, sp.aNzPrev, sp.aNz
}

// finishZ is finishSlice's half for a z set: A = A_z ⊕ A_nz (Alg. 4
// line 34), lazily. It writes the nz rows and logs the final transforms
// (every suffix product times T, O(zLogLen·K³) per mode) into run.next —
// the committed version itself when nothing pins it, else the spare
// brought level with it (writable) — and records the nz sets for the
// next slice's C_z upkeep. So a slice writes O(|nz|·K) words; the z rows
// are rewritten only by the flush of every zLogLen-th slice.
func (d *Decomposer) finishZ(run *sliceRun) {
	rm, sp := run.rm, &d.sp
	v := d.writable()
	for m, nz := range rm.NZ {
		v.nz[m] = append(v.nz[m][:0], nz...)
	}
	d.beginWrite(v, v.nz)
	v.growLog(v.lag + 1)
	age := uint8(v.lag + 1)
	for m, a := range v.a {
		for e := 0; e < v.lag; e++ {
			dense.MulAB(sp.tmpKK, v.log[m][e], sp.tFinal[m])
			v.log[m][e].CopyFrom(sp.tmpKK)
		}
		v.log[m][v.lag].CopyFrom(sp.tFinal[m])
		rm.ScatterMode(a, sp.aNz[m], m)
		for _, i := range rm.NZ[m] {
			v.age[m][i] = age
		}
		d.cz[m].CopyFrom(sp.czCur[m])
	}
	v.lag++
	d.endWrite(v)
	if v.lag == zLogLen {
		d.flush(v, v)
	}
	run.next = v
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
