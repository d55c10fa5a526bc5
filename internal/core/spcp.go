package core

import (
	"spstream/internal/dense"
	"spstream/internal/parallel"
)

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
	dst = resized(dst, len(idx), d.k)
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

// beginZ is beginSlice's half for a z set (Alg. 4 lines 3–11): the
// pooled remap of the slice into nz-row space (the dense LUT scratch, nz
// lists and index columns are reused across slices), the A_nz,t−1
// gathers the iterate starts from — the only rows of A_{t−1} a
// non-flush slice brings current — and C_z,t−1 = C − A_nz,t−1ᵀA_nz,t−1,
// a Gram over the rows just gathered. It stands in for Alg. 4's
// lines 8–11, which carry C_z over from the previous slice and adjust
// it by the rows that left and entered the nz set: the same K×K matrix
// at one |nz|·K² Gram per mode, with nothing of the slice before.
func (d *Decomposer) beginZ(run *sliceRun) {
	rm := d.remapper.Begin(run.in.x)
	for m := range d.modes {
		md, nz := &d.modes[m], rm.NZ[m]
		md.aNzPrev = d.gatherRows(md.aNzPrev, d.cur, m, nz)
		d.zRowsRead += len(nz)
		md.aNz = resized(md.aNz, len(nz), d.k)
		md.aNz.CopyFrom(md.aNzPrev)
		dense.GramParallel(md.cz, md.aNzPrev, d.opt.Workers)
		dense.Sub(md.cz, md.c, md.cz)
		run.a[m], run.prev[m], run.fac[m] = md.aNz, md.aNzPrev, md.aNz
	}
	run.rm, run.kin = rm, sliceData{x: rm.X}
}

// finishZ is finishSlice's half for a z set: A = A_z ⊕ A_nz (Alg. 4
// line 34), lazily. It writes the nz rows and logs the final transforms
// (every suffix product times T, O(zLogLen·K³) per mode) into run.next —
// the committed version itself when nothing pins it, else the spare
// brought level with it (writable). So a slice writes O(|nz|·K) words;
// the z rows are rewritten only by the flush of every zLogLen-th slice.
func (d *Decomposer) finishZ(run *sliceRun) {
	v := d.writable()
	d.beginWrite(v, true)
	v.growLog(v.lag + 1)
	age := uint8(v.lag + 1)
	for m := range v.modes {
		r, md := &v.modes[m], &d.modes[m]
		for _, p := range r.log[:v.lag] {
			dense.MulAB(d.tmpKK, p, md.tFinal)
			p.CopyFrom(d.tmpKK)
		}
		r.log[v.lag].CopyFrom(md.tFinal)
		run.rm.ScatterMode(r.a, md.aNz, m)
		r.nz = append(r.nz[:0], run.rm.NZ[m]...)
		for _, i := range r.nz {
			r.age[i] = age
		}
	}
	v.lag++
	d.endWrite(v)
	if v.lag == zLogLen {
		d.flush(v, v)
	}
	run.next = v
}
