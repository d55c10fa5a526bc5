package core

import (
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/trace"
)

// explicitRun holds the per-slice state of Algorithm 1 — Optimized, and
// either algorithm on a streamed slice — between the begin/iterate/finish
// phases. Splitting the slice loop this way keeps every per-slice
// artifact (compiled MTTKRP layouts, the slice's result) out of the
// Decomposer while letting tests drive — and measure — a single
// steady-state inner iteration in isolation.
type explicitRun struct {
	// in is the slice as it arrived, in global row ids; kin and kf are
	// the sparse data and factors the kernels read — in and d.a, unless
	// the selector remapped the slice (rm below). For a resident
	// kin the kernel table d.kernels (resolved in beginExplicit) says
	// which layout each mode's MTTKRP dispatches to; plan is nil when no
	// mode chose it, and the CSF trees live in the Decomposer's pooled
	// engine. A streamed kin has no table: every kernel streams.
	in, kin sliceData
	kf      []*dense.Matrix
	plan    *mttkrp.Plan
	// rm, when non-nil, is the compact renumbering of
	// the slice (see beginKernelsLayout): the kernels run over rm.X and
	// the gathered d.aNzCur factors, while d.a/d.psi stay in global row
	// ids — the remapping is invisible outside the mode-update inner
	// loop, so snapshots and checkpoints always see global rows.
	rm  *mttkrp.Remapped
	res SliceResult
}

// beginExplicit performs the per-slice Pre work: snapshot A_{t-1} and
// C_{t-1}, seed H = C (A == A_{t-1} at the start of the inner loop),
// resolve the per-mode kernel table and compile the layouts it needs
// (coordinate plan and/or CSF trees — both amortized over the inner
// iterations) or, for a streamed slice, the streamed kernel's per-worker
// row and block schedule, and solve the closed-form sₜ warm start.
func (d *Decomposer) beginExplicit(in sliceData) (*explicitRun, error) {
	run := &explicitRun{
		in:  in,
		kin: in,
		kf:  d.a,
		res: SliceResult{T: d.t, NNZ: in.nnz(), Fit: math.NaN()},
	}
	var err error
	d.bd.Time(trace.Pre, func() {
		for m := range d.a {
			d.prevA[m].CopyFrom(d.a[m])
			d.cPrev[m].CopyFrom(d.c[m])
			d.h[m].CopyFrom(d.c[m])
		}
		if in.src != nil {
			// Kernel selection and remapping are in-memory concerns:
			// empty the table and the last verdict so the diagnostics
			// don't name a previous slice's.
			d.kernels = d.kernels[:0]
			d.lastRemapped = false
			if err = d.streamKernel().Begin(in.src); err != nil {
				err = fmt.Errorf("core: streamed schedule: %w", err)
				return
			}
		} else {
			run.plan, run.rm = d.beginKernelsLayout(in.x)
		}
		if run.rm != nil {
			d.ensureNzPsi(run.rm)
			d.ensureANzCur(run.rm)
			run.kin, run.kf = sliceData{x: run.rm.X}, d.aNzCur
		}
		if err = d.mttkrpTime(d.fitPsi, run.kin, run.kf); err == nil {
			err = d.solveS()
		}
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.Misc, d.buildMuG)
	d.ensurePsi()
	return run, nil
}

// iterateExplicit runs one inner ALS/ADMM iteration (all modes plus the
// time-mode block) and returns its δₜ. This is the steady-state hot
// path: all parallel work dispatches ctx-style through the persistent
// pool, timing uses explicit Add calls, and the Φ factorization reuses
// the Decomposer's Cholesky storage — zero heap allocations per call.
func (d *Decomposer) iterateExplicit(run *explicitRun) (float64, error) {
	phi := d.scratch1
	q := d.scratch2
	rm := run.rm
	con := d.opt.Constraint
	// The remapped unconstrained update never materializes the full Ψ;
	// ADMM needs it whatever the layout.
	fused := rm != nil && con == nil
	var kout *dense.Matrix
	for n := 0; n < d.n; n++ {
		// Φ⁽ⁿ⁾ and its Cholesky factorization. Hoisted ahead of the Ψ
		// work (on which it does not depend) so the remapped path can use
		// the factor for its fused compact update below.
		t0 := time.Now()
		d.buildPhi(phi, n)
		err := d.factorize(phi)
		d.bd.Add(trace.Inverse, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("core: mode %d Φ factorization: %w", n, err)
		}
		// M⁽ⁿ⁾ = MTTKRP(Xₜ, {A}, n), kept raw: the time mode's single
		// Khatri-Rao row sₜ is a column scaling the row pass below applies,
		// and sₜ itself is refreshed from the last mode's M — which ADMM
		// would overwrite with Ψ⁽ᴺ⁾, hence rawLast. A remapped slice's kernel
		// runs over the compact slice and gathered factors into M_nz.
		t0 = time.Now()
		kout = d.psi[n]
		if rm != nil {
			kout = d.nzPsi[n]
		} else if con != nil && n == d.n-1 {
			kout = d.rawLast(d.dims[n])
		}
		if err := d.mttkrpMode(kout, run.kin, run.plan, run.kf, n); err != nil {
			return 0, err
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		// Ψ⁽ⁿ⁾ = M⁽ⁿ⁾·diag(sₜ) + A⁽ⁿ⁾ₜ₋₁ ((⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG), the second
		// the "Historical" term, staged in one row pass where the solve
		// reads it: the factor, its compact rows when remapped, Ψ for ADMM.
		t0 = time.Now()
		d.buildQ(q, n)
		switch {
		case fused:
			d.stageRHS(d.aNzCur[n], kout, d.prevA[n], q, rm.NZ[n])
		case rm != nil:
			// Constrained remap: build the full-row Ψ as
			// overwrite-plus-scatter (still no Iₙ×K zero fill).
			dense.MulABParallel(d.psi[n], d.prevA[n], q, d.opt.Workers)
			s := d.s
			for r, g := range rm.NZ[n] {
				dst := d.psi[n].Row(int(g))
				src := kout.Row(r)
				for j, v := range src {
					dst[j] += v * s[j]
				}
			}
		case con != nil:
			d.stageRHS(d.psi[n], kout, d.prevA[n], q, nil)
		default:
			d.stageRHS(d.a[n], kout, d.prevA[n], q, nil)
		}
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		if fused {
			// The kernel output is zero off the nz rows, so
			// Ψ_z = (A⁽ⁿ⁾ₜ₋₁·Q)_z and the z-row solves collapse into one
			// K×K composition M = Q·Φ⁻¹ followed by a streaming product —
			// the per-row triangular solves run only over the |nz| compact
			// rows.
			d.solveRows(d.aNzCur[n])
			d.chol.SolveRows(q)
			dense.MulABParallel(d.a[n], d.prevA[n], q, d.opt.Workers)
			rm.ScatterMode(d.a[n], d.aNzCur[n], n)
		} else if con == nil {
			d.solveRows(d.a[n])
		} else {
			st, e := d.solver.BlockedFused(d.a[n], phi, d.psi[n], con)
			run.res.ADMMIters += st.Iters
			err = e
		}
		d.bd.Add(trace.Update, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("core: mode %d ADMM: %w", n, err)
		}
		// Refresh the Gram matrices used by the other modes. The C⁽ⁿ⁾
		// refresh is "Gram" work; the H⁽ⁿ⁾ cross-Gram against A⁽ⁿ⁾ₜ₋₁ is
		// part of the historical term (Fig. 8 accounting).
		t0 = time.Now()
		dense.GramParallel(d.c[n], d.a[n], d.opt.Workers)
		d.bd.Add(trace.Gram, time.Since(t0))
		t0 = time.Now()
		dense.MulAtBParallel(d.h[n], d.prevA[n], d.a[n], d.opt.Workers)
		d.bd.Add(trace.Historical, time.Since(t0))
		if d.opt.Normalize {
			t0 = time.Now()
			d.normalizeModeExplicit(n)
			d.bd.Add(trace.Misc, time.Since(t0))
		}
		if rm != nil {
			// Refresh the mode's compact gather so the remaining modes'
			// kernels (and the time-mode block) read the updated rows.
			t0 = time.Now()
			rm.GatherMode(d.aNzCur[n], d.a[n], n)
			d.bd.Add(trace.Misc, time.Since(t0))
		}
	}
	// Time-mode ALS block: refresh sₜ, and with it the µG + ssᵀ operand,
	// from ψ = Σᵢ M⁽ᴺ⁾[i,:] ∘ A⁽ᴺ⁾[i,:] — no pass over the nonzeros.
	t0 := time.Now()
	d.colDots(d.fitPsi, kout, run.kf[d.n-1])
	d.psiFresh = true
	err := d.solveS()
	d.bd.Add(trace.MTTKRP, time.Since(t0))
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	d.buildMuG()
	d.bd.Add(trace.Misc, time.Since(t0))
	// δₜ = Σ_n ‖A⁽ⁿ⁾−A⁽ⁿ⁾ₜ₋₁‖_F / ‖A⁽ⁿ⁾‖_F (Eq. 15).
	t0 = time.Now()
	var delta float64
	for n := 0; n < d.n; n++ {
		num := dense.ParallelFrobNorm2Diff(d.a[n], d.prevA[n], d.opt.Workers)
		den := dense.FrobNorm2(d.a[n])
		if den > 0 {
			delta += math.Sqrt(num / den)
		}
	}
	d.bd.Add(trace.Error, time.Since(t0))
	return delta, nil
}

// finishExplicit performs the Post work (fit tracking, G/S temporal
// update) and returns the slice result.
func (d *Decomposer) finishExplicit(run *explicitRun) (SliceResult, error) {
	if d.opt.TrackFit {
		var err error
		d.bd.Time(trace.Misc, func() { run.res.Fit, err = d.sliceFit(run.in) })
		if err != nil {
			return run.res, err
		}
	}
	// This slice's rows moved outside the Gram-form bookkeeping (a
	// streamed slice under spCP-stream lands here): like SetAlgorithm,
	// make the next spCP slice recompute C_z,t−1 from scratch.
	d.prevNZ = nil
	d.bd.Time(trace.Post, d.finishSlice)
	return run.res, nil
}

// ensurePsi lazily allocates the Ψ workspace (one Iₙ×K matrix per mode).
func (d *Decomposer) ensurePsi() {
	if d.psi != nil {
		return
	}
	d.psi = make([]*dense.Matrix, d.n)
	for m, dim := range d.dims {
		d.psi[m] = dense.NewMatrix(dim, d.k)
	}
}

// ensureANzCur sizes the per-mode gathered compact factors A_nz to the
// remapped slice's nz row counts and fills them from the current
// factors.
func (d *Decomposer) ensureANzCur(rm *mttkrp.Remapped) {
	d.aNzCur = d.sizeNZ(d.aNzCur, rm)
	rm.GatherFactorsInto(d.aNzCur, d.a)
}

// rawLast returns the rows×K buffer a constrained last factor mode's
// kernel writes M into (see iterateExplicit), reallocated on a new size.
func (d *Decomposer) rawLast(rows int) *dense.Matrix {
	if d.lastM == nil || d.lastM.Rows != rows {
		d.lastM = dense.NewMatrix(rows, d.k)
	}
	return d.lastM
}

// stageRHS writes the row update's right-hand side
// dst[r] = m[r]∘sₜ + prev[g]·q for every row r of m, with g = nz[r], or r
// itself when nz is nil; dst may be m. Allocation-free via d.pargs.
func (d *Decomposer) stageRHS(dst, m, prev, q *dense.Matrix, nz []int32) {
	pa := &d.pargs
	pa.dst, pa.m, pa.a, pa.b, pa.nz, pa.s = dst, m, prev, q, nz, d.s
	d.pool.Do(m.Rows, d.opt.Workers, pa, stageRHSBody)
	*pa = coreArgs{}
}

func stageRHSBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	for i := r.Lo; i < r.Hi; i++ {
		dst := pa.dst.Row(i)
		for j, v := range pa.m.Row(i) {
			dst[j] = v * pa.s[j]
		}
		g := i
		if pa.nz != nil {
			g = int(pa.nz[i])
		}
		dense.AddMulRow(dst, pa.a.Row(g), pa.b)
	}
}

// solveRows overwrites the staged right-hand sides m with m·Φ⁻¹, each
// worker pushing its row range through the panel solve.
func (d *Decomposer) solveRows(m *dense.Matrix) {
	pa := &d.pargs
	pa.dst, pa.chol = m, &d.chol
	d.pool.Do(m.Rows, d.opt.Workers, pa, solveRowsBody)
	*pa = coreArgs{}
}

func solveRowsBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	var rows dense.Matrix
	rows.SetRowView(pa.dst, r.Lo, r.Hi)
	pa.chol.SolveRows(&rows)
}

// dotBlock is the row-block height of colDots: a constant, so that the
// partial sums, and with them sₜ, do not depend on the worker count.
const dotBlock = 256

// colDots computes dst[k] = Σᵢ m[i,k]·a[i,k]: one partial per dotBlock
// rows, computed on the pool, merged in ascending block order.
func (d *Decomposer) colDots(dst []float64, m, a *dense.Matrix) {
	nb := (m.Rows + dotBlock - 1) / dotBlock
	if cap(d.dotPart) < nb*d.k {
		d.dotPart = make([]float64, nb*d.k)
	}
	pa := &d.pargs
	pa.m, pa.a, pa.part = m, a, d.dotPart[:nb*d.k]
	d.pool.Do(nb, d.opt.Workers, pa, colDotsBody)
	*pa = coreArgs{}
	clear(dst)
	for i, v := range d.dotPart[:nb*d.k] {
		dst[i%d.k] += v
	}
}

func colDotsBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	k := pa.m.Cols
	for b := r.Lo; b < r.Hi; b++ {
		acc := pa.part[b*k : (b+1)*k]
		clear(acc)
		for i := b * dotBlock; i < min((b+1)*dotBlock, pa.m.Rows); i++ {
			ra := pa.a.Row(i)
			for j, v := range pa.m.Row(i) {
				acc[j] += float64(v * ra[j])
			}
		}
	}
}
