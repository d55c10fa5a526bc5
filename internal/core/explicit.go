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
	// in is the slice; the kernels read it and d.a. For a resident in the
	// kernel table d.kernels (resolved in beginExplicit) says which
	// layout each mode's MTTKRP dispatches to; plan is nil when no mode
	// chose it, and the CSF trees live in the Decomposer's pooled engine.
	// A streamed in has no table: every kernel streams.
	in   sliceData
	plan *mttkrp.Plan
	res  SliceResult
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
			// Kernel selection is an in-memory concern: empty the table
			// so the diagnostics don't name a previous slice's.
			d.kernels = d.kernels[:0]
			if err = d.streamKernel().Begin(in.src); err != nil {
				err = fmt.Errorf("core: streamed schedule: %w", err)
				return
			}
		} else {
			run.plan = d.beginKernels(in.x)
		}
		if err = d.mttkrpTime(d.fitPsi, in, d.a); err == nil {
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
	con := d.opt.Constraint
	var kout *dense.Matrix
	for n := 0; n < d.n; n++ {
		// Φ⁽ⁿ⁾ and its Cholesky factorization.
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
		// would overwrite with Ψ⁽ᴺ⁾, hence rawLast.
		t0 = time.Now()
		kout = d.psi[n]
		if con != nil && n == d.n-1 {
			kout = d.rawLast(d.dims[n])
		}
		if err := d.mttkrpMode(kout, run.in, run.plan, d.a, n); err != nil {
			return 0, err
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		// Ψ⁽ⁿ⁾ = M⁽ⁿ⁾·diag(sₜ) + A⁽ⁿ⁾ₜ₋₁ ((⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG), the second
		// the "Historical" term, staged in one row pass where the solve
		// reads it: the factor itself, Ψ for ADMM.
		t0 = time.Now()
		d.buildQ(q, n)
		rhs := d.a[n]
		if con != nil {
			rhs = d.psi[n]
		}
		d.stageRHS(rhs, kout, d.prevA[n], q)
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		if con == nil {
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
	}
	// Time-mode ALS block: refresh sₜ, and with it the µG + ssᵀ operand,
	// from ψ = Σᵢ M⁽ᴺ⁾[i,:] ∘ A⁽ᴺ⁾[i,:] — no pass over the nonzeros.
	t0 := time.Now()
	d.colDots(d.fitPsi, kout, d.a[d.n-1])
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

// rawLast returns the rows×K buffer a constrained last factor mode's
// kernel writes M into (see iterateExplicit), reallocated on a new size.
func (d *Decomposer) rawLast(rows int) *dense.Matrix {
	if d.lastM == nil || d.lastM.Rows != rows {
		d.lastM = dense.NewMatrix(rows, d.k)
	}
	return d.lastM
}

// stageRHS writes the row update's right-hand side
// dst[r] = m[r]∘sₜ + prev[r]·q for every row r of m; dst may be m.
// Allocation-free via d.pargs.
func (d *Decomposer) stageRHS(dst, m, prev, q *dense.Matrix) {
	pa := &d.pargs
	pa.dst, pa.m, pa.a, pa.b, pa.s = dst, m, prev, q, d.s
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
		dense.AddMulRow(dst, pa.a.Row(i), pa.b)
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
