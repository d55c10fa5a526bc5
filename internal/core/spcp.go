package core

import (
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// spcpRun holds the per-slice state of the paper's Algorithm 4
// (spCP-stream) between the begin/iterate/finish phases: the remapped
// slice and its compiled MTTKRP plan; the gathered A_nz iterates and the
// per-mode final transforms are the Decomposer's (spcpBufs). Factor rows
// are partitioned per mode into the nz(n) subset touched by this slice's
// nonzeros and the untouched z(n) subset. Only A_nz is materialized and
// iterated on; the z rows are carried implicitly through the K×K Gram
// matrices C_z (Eq. 11) and updated explicitly once, after convergence,
// by the accumulated transform Q·Φ⁻¹ of the final iteration (Eq. 6). The
// inner loop therefore costs O(nnz·K + |nz|·K² + K³) per mode instead of
// O(nnz·K + Iₙ·K²) — the source of the 102× speedups on skewed tensors.
type spcpRun struct {
	x    *sptensor.Tensor
	rm   *mttkrp.Remapped
	plan *mttkrp.Plan
	res  SliceResult
}

// spcpBufs are the matrices of a spCP-stream slice, owned by the
// Decomposer and grow-only: per mode the |nz|×K iterate aNz, its A_{t−1}
// gather aNzPrev and the Ψ_nz workspace psi (row counts differ across
// modes, so each mode owns its own), the K×K final transform tFinal and
// current C_z czCur; tmpKK and gram are K×K scratch, moved the gather of
// the rows that left or entered an nz set. beginSpCP re-slices the row
// matrices to the slice's nz counts and nothing reads one before it is
// written in full: aNzPrev by its gather and aNz by the copy of it in
// beginSpCP, psi by every mode's MTTKRP, tFinal, tmpKK and czCur by
// iterateSpCP's SolveRowsInto, MulAB and MulAtB — MaxIters ≥ 1, so
// finishSpCP never sees a previous slice's — gram and moved by the
// GramParallel and gather beside each use.
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

// beginSpCP performs the Pre work: remap, nz bookkeeping, incremental
// C_z,t−1 maintenance, the A_nz gathers, the per-slice MTTKRP plan over
// the remapped slice (amortized across all inner iterations), and the
// sₜ warm start.
func (d *Decomposer) beginSpCP(x *sptensor.Tensor) (*spcpRun, error) {
	run := &spcpRun{
		x:   x,
		res: SliceResult{T: d.t, NNZ: x.NNZ(), Fit: math.NaN()},
	}
	var err error
	d.bd.Time(trace.Pre, func() {
		// Pooled remap (ascending local ids — spCP's incremental C_z
		// bookkeeping relies on sorted NZ sets): the dense LUT scratch,
		// NZ lists, and index columns are reused across slices.
		run.rm = d.remapper.Begin(x, nil)
		rm, sp := run.rm, &d.sp
		if sp.aNz == nil {
			sp.aNz, sp.aNzPrev, sp.psi = make([]*dense.Matrix, d.n), make([]*dense.Matrix, d.n), make([]*dense.Matrix, d.n)
			for range d.a {
				sp.tFinal = append(sp.tFinal, dense.NewMatrix(d.k, d.k))
				sp.czCur = append(sp.czCur, dense.NewMatrix(d.k, d.k))
			}
			sp.tmpKK, sp.gram = dense.NewMatrix(d.k, d.k), dense.NewMatrix(d.k, d.k)
		}
		for m := range d.a {
			// Gather A_nz,t−1, initialize the iterate A_nz from it and
			// seed the Gram state exactly like the explicit path.
			sp.aNzPrev[m] = gatherNZ(sp.aNzPrev[m], d.a[m], rm.NZ[m])
			sp.aNz[m] = resized(sp.aNz[m], len(rm.NZ[m]), d.k)
			sp.aNz[m].CopyFrom(sp.aNzPrev[m])
			sp.psi[m] = resized(sp.psi[m], len(rm.NZ[m]), d.k)
			d.cPrev[m].CopyFrom(d.c[m])
			d.h[m].CopyFrom(d.c[m])
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
				sp.moved = gatherNZ(sp.moved, d.a[m], left)
				dense.GramParallel(sp.gram, sp.moved, d.opt.Workers)
				dense.Add(d.cz[m], d.cz[m], sp.gram)
			}
			if entered := mttkrp.SetDiff(rm.NZ[m], d.prevNZ[m]); len(entered) > 0 {
				sp.moved = gatherNZ(sp.moved, d.a[m], entered)
				dense.GramParallel(sp.gram, sp.moved, d.opt.Workers)
				dense.Sub(d.cz[m], d.cz[m], sp.gram)
			}
		}
		// The compiled MTTKRP layouts over the remapped slice, reused by
		// every A_nz update of the inner loop. Kernel selection profiles
		// the remapped slice — its mode lengths are the nz-row counts, so
		// the cost model sees the problem the kernels actually run on.
		run.plan = d.beginKernels(rm.X)
		// sₜ update over the remapped slice and gathered prev factors
		// (identical values, slice-local footprint).
		if err = d.mttkrpTime(d.fitPsi, sliceData{x: rm.X}, sp.aNzPrev); err == nil {
			err = d.solveS()
		}
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.Misc, d.buildMuG)
	return run, nil
}

// iterateSpCP runs one inner iteration of Algorithm 4 and returns its
// δₜ. Steady-state allocation-free, like iterateExplicit.
func (d *Decomposer) iterateSpCP(run *spcpRun) (float64, error) {
	phi := d.scratch1
	q := d.scratch2
	con := d.opt.Constraint
	sp := &d.sp
	for n := 0; n < d.n; n++ {
		last := n == d.n-1
		// Q⁽ⁿ⁾ (Eq. 14) — Hadamard of K×K Grams, replacing the
		// baseline's giant Historical matrix products.
		t0 := time.Now()
		d.buildQ(q, n)
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		d.buildPhi(phi, n)
		err := d.factorize(phi)
		d.bd.Add(trace.Inverse, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("core: spcp mode %d Φ factorization: %w", n, err)
		}
		// A_nz update (Eq. 7): plan-based spMTTKRP over gathered factors,
		// kept raw (see iterateExplicit), then the explicit body's row
		// update over the nz rows: the column scaling by sₜ plus the nz
		// part of the historical term, the Φ solve — under the
		// experimental constrained extension (§VII) BF-ADMM, warm-started
		// from the previous iterate, the z rows staying linear and
		// projected once per slice in Post — and C_nz, H_nz and ψ.
		t0 = time.Now()
		kout := sp.psi[n]
		if con != nil && last {
			kout = d.rawLast(kout.Rows)
		}
		if err := d.mttkrpMode(kout, sliceData{x: run.rm.X}, run.plan, sp.aNz, n); err != nil {
			return 0, err
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		// C_nz lands in c[n], H_nz in h[n].
		if _, _, err := d.updateRows(&run.res, n, sp.aNz[n], kout, sp.aNzPrev[n], sp.psi[n], phi, q); err != nil {
			return 0, err
		}
		// The implicit z parts (Eqs. 11, 13): T = QΦ⁻¹,
		// H_z = C_z,t−1·T, C_z = Tᵀ·C_z,t−1·T. All K×K, and
		// historical-term work (Fig. 8 accounting).
		t0 = time.Now()
		d.chol.SolveRowsInto(sp.tFinal[n], q)
		dense.MulAB(sp.tmpKK, d.cz[n], sp.tFinal[n]) // C_z,t−1·T
		dense.Add(d.h[n], d.h[n], sp.tmpKK)          // H = H_nz + H_z
		dense.MulAtB(sp.czCur[n], sp.tFinal[n], sp.tmpKK)
		dense.Add(d.c[n], d.c[n], sp.czCur[n]) // C = C_nz + C_z
		d.bd.Add(trace.Historical, time.Since(t0))
		if d.opt.Normalize {
			// Gram-form normalize: scaling T's columns scales the implicit
			// z rows (A_z = A_z,t₋₁·T), and C_z goes with them.
			t0 = time.Now()
			d.normalizeMode(n, coreArgs{a: sp.aNz[n], m: kout, psi: last})
			dense.ScaleColumns(sp.tFinal[n], sp.tFinal[n], d.colScale)
			dense.ScaleColumns(sp.czCur[n], sp.czCur[n], d.colScale)
			dense.ScaleRows(sp.czCur[n], sp.czCur[n], d.colScale)
			d.bd.Add(trace.Misc, time.Since(t0))
		}
	}
	if err := d.refreshS(); err != nil {
		return 0, err
	}
	// Trace-form convergence (Eqs. 16–17):
	// ‖A−Aₜ₋₁‖² = tr(C) + tr(Cₜ₋₁) − 2tr(H), ‖A‖² = tr(C).
	t0 := time.Now()
	var delta float64
	for n := 0; n < d.n; n++ {
		den := dense.Trace(d.c[n])
		num := den + dense.Trace(d.cPrev[n]) - 2*dense.Trace(d.h[n])
		if num < 0 {
			num = 0 // floating-point cancellation guard
		}
		if den > 0 {
			delta += math.Sqrt(num / den)
		}
	}
	d.bd.Add(trace.Error, time.Since(t0))
	return delta, nil
}

// finishSpCP materializes A = A_z ⊕ A_nz (Alg. 4 line 34) and performs
// the shared Post bookkeeping.
func (d *Decomposer) finishSpCP(run *spcpRun) SliceResult {
	rm, sp := run.rm, &d.sp
	d.bd.Time(trace.Post, func() {
		for m := range d.a {
			isNZ := d.markNZ(d.a[m].Rows, rm.NZ[m])
			projected := d.applyZTransform(d.a[m], isNZ, sp.tFinal[m])
			rm.ScatterMode(d.a[m], sp.aNz[m], m)
			if projected {
				// The z rows changed beyond the linear transform, so
				// re-synchronize C_z (and with it C) from the
				// materialized rows — one masked sweep per slice.
				d.rowSweep(coreArgs{a: d.a[m], skip: isNZ}, d.cz[m], nil)
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
	})
	if d.opt.TrackFit {
		// The fit of a resident slice cannot fail.
		d.bd.Time(trace.Misc, func() { run.res.Fit, _ = d.sliceFit(sliceData{x: run.x}) })
	}
	d.bd.Time(trace.Post, d.finishSlice)
	return run.res
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

// applyZTransform updates every z row of the full factor in place, on the
// pool: row ← row·T (Eq. 6 with A_z,t−1 being the untouched rows of a).
// isNZ marks the rows to skip; all other rows are transformed, each on its
// own, so no bit depends on the partition. In the constrained extension
// the materialized z rows are additionally projected onto the constraint
// set; the return value reports whether that projection ran (the caller
// must then re-synchronize the Grams).
func (d *Decomposer) applyZTransform(a *dense.Matrix, isNZ []bool, t *dense.Matrix) bool {
	for w := len(d.zRows); w < parallel.ClampWorkers(d.opt.Workers, a.Rows); w++ {
		d.zRows = append(d.zRows, *dense.NewMatrix(1, d.k))
	}
	d.pargs = coreArgs{a: a, q: t, skip: isNZ, con: d.opt.Constraint, rows: d.zRows}
	d.pool.Do(a.Rows, d.opt.Workers, &d.pargs, zTransformBody)
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
		row := pa.a.Row(i)
		clear(tmp.Data)
		dense.AddMulRow(tmp.Data, row, pa.q)
		if pa.con != nil {
			pa.con.Project(tmp, tmp, nil, nil, 1)
		}
		copy(row, tmp.Data)
	}
}
