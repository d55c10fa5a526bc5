package core

import (
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/perfmodel"
	"spstream/internal/trace"
)

// explicitRun holds the per-slice state of Algorithm 1 — the Baseline
// and Optimized variants, and every algorithm on a streamed slice —
// between the begin/iterate/finish phases. Splitting the slice loop this
// way keeps every per-slice artifact (compiled MTTKRP layouts, the
// slice's result) out of the Decomposer while letting tests drive — and
// measure — a single steady-state inner iteration in isolation. The
// variants differ in kernel choice: Lock vs plan-based segmented MTTKRP,
// single-lock vs thread-local streaming-mode update, and Algorithm 2 vs
// Algorithm 3 ADMM for constrained problems.
type explicitRun struct {
	// in is the slice as it arrived, in global row ids; kin and kf are
	// the sparse data and factors the kernels read — in and d.a, unless
	// the layout manager remapped the slice (rm below). For a resident
	// kin the kernel table d.kernels (resolved in beginExplicit) says
	// which layout each mode's MTTKRP dispatches to; plan is nil when no
	// mode chose it, and the CSF trees live in the Decomposer's pooled
	// engine. A streamed kin has no table: every kernel streams.
	in, kin sliceData
	kf      []*dense.Matrix
	plan    *mttkrp.Plan
	// rm, when non-nil, is the layout manager's compact renumbering of
	// the slice (see beginKernelsLayout): the kernels run over rm.X and
	// the gathered d.aNzCur factors, while d.a/d.psi stay in global row
	// ids — the remapping is invisible outside the mode-update inner
	// loop, so snapshots and checkpoints always see global rows.
	rm        *mttkrp.Remapped
	optimized bool
	res       SliceResult
}

// beginExplicit performs the per-slice Pre work: snapshot A_{t-1} and
// C_{t-1}, seed H = C (A == A_{t-1} at the start of the inner loop),
// resolve the per-mode kernel table and compile the layouts it needs
// (coordinate plan and/or CSF trees — both amortized over the inner
// iterations) or, for a streamed slice, the streamed kernel's per-worker
// row and block schedule, and solve the closed-form sₜ warm start.
func (d *Decomposer) beginExplicit(in sliceData) (*explicitRun, error) {
	run := &explicitRun{
		in:        in,
		kin:       in,
		kf:        d.a,
		optimized: d.opt.Algorithm != Baseline,
		res:       SliceResult{T: d.t, NNZ: in.nnz(), Fit: math.NaN()},
	}
	var err error
	d.bd.Time(trace.Pre, func() {
		for m := range d.a {
			d.prevA[m].CopyFrom(d.a[m])
			d.cPrev[m].CopyFrom(d.c[m])
			d.h[m].CopyFrom(d.c[m])
		}
		if in.src != nil {
			// Kernel selection and the adaptive layout are in-memory
			// concerns: empty the table and the last decision so the
			// diagnostics don't name a previous slice's.
			d.kernels = d.kernels[:0]
			d.lastDec = perfmodel.Decision{}
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
		err = d.solveS(run.kin, run.kf, !run.optimized)
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
	// The remapped unconstrained update never materializes the full Ψ;
	// ADMM needs it whatever the layout.
	fused := rm != nil && d.opt.Constraint == nil
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
		// Ψ⁽ⁿ⁾ = MTTKRP(Xₜ, {A}, n)·diag(sₜ) — the slice's time mode
		// contributes the single Khatri-Rao row sₜ, which (all nonzeros
		// sharing one time index) reduces to a column scaling of the
		// N-way MTTKRP. A remapped slice's kernel runs over the compact
		// slice and gathered factors into the |nz|×K Ψ_nz …
		t0 = time.Now()
		kout := d.psi[n]
		if rm != nil {
			kout = d.nzPsi[n]
		}
		if err := d.mttkrpMode(kout, run.kin, run.plan, run.kf, n); err != nil {
			return 0, err
		}
		if rm == nil {
			dense.ScaleColumns(kout, kout, d.s)
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		t0 = time.Now()
		d.buildQ(q, n)
		switch {
		case fused:
			// … the historical term folds into the compact rows only:
			// Ψ_nz ← Ψ_nz·diag(sₜ) + (A⁽ⁿ⁾ₜ₋₁)_nz·Q …
			s := d.s
			prev := d.prevA[n]
			for r, g := range rm.NZ[n] {
				dst := kout.Row(r)
				for j := range dst {
					dst[j] *= s[j]
				}
				dense.AddMulRow(dst, prev.Row(int(g)), q)
			}
		case rm != nil:
			// Constrained remap: build the full-row Ψ as
			// overwrite-plus-scatter (still no Iₙ×K zero fill).
			d.mulAB(d.psi[n], d.prevA[n], q)
			s := d.s
			for r, g := range rm.NZ[n] {
				dst := d.psi[n].Row(int(g))
				src := kout.Row(r)
				for j, v := range src {
					dst[j] += v * s[j]
				}
			}
		default:
			// … + A⁽ⁿ⁾ₜ₋₁ ((⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG): the "Historical" term,
			// an Iₙ×K by K×K product against the full previous factor.
			d.addMulAB(d.psi[n], d.prevA[n], q)
		}
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		if fused {
			// The kernel output is zero off the nz rows, so
			// Ψ_z = (A⁽ⁿ⁾ₜ₋₁·Q)_z and the z-row solves collapse into one
			// K×K composition M = Q·Φ⁻¹ followed by a streaming product —
			// the per-row triangular solves run only over the |nz| compact
			// rows.
			d.solveRows(kout, kout, &d.chol)
			d.chol.SolveRows(q)
			d.mulAB(d.a[n], d.prevA[n], q)
			rm.ScatterMode(d.a[n], kout, n)
		} else if d.opt.Constraint == nil {
			d.solveRows(d.a[n], d.psi[n], &d.chol)
		} else if run.optimized {
			st, e := d.solver.BlockedFused(d.a[n], phi, d.psi[n], d.opt.Constraint)
			run.res.ADMMIters += st.Iters
			err = e
		} else {
			st, e := d.solver.Baseline(d.a[n], phi, d.psi[n], d.opt.Constraint)
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
			// kernels (and the time-mode solve) read the updated rows.
			t0 = time.Now()
			rm.GatherMode(d.aNzCur[n], d.a[n], n)
			d.bd.Add(trace.Misc, time.Since(t0))
		}
	}
	// Time-mode ALS block: refresh sₜ against the updated factors (the
	// single-row MTTKRP that motivates the Hybrid Lock kernel) and with
	// it the µG + ssᵀ Hadamard operand.
	t0 := time.Now()
	err := d.solveS(run.kin, run.kf, !run.optimized)
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

// mulAB computes dst = a·b (full overwrite — the write variant of
// addMulAB) with the row dimension parallelized (a: I×K, b: K×K,
// dst: I×K; shapes are checked by the dense range kernel).
// Allocation-free via the Decomposer-owned argument block.
func (d *Decomposer) mulAB(dst, a, b *dense.Matrix) {
	pa := &d.pargs
	pa.dst, pa.a, pa.b = dst, a, b
	d.pool.Do(a.Rows, d.opt.Workers, pa, mulABBody)
	*pa = coreArgs{}
}

func mulABBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	dense.MulABRange(pa.dst, pa.a, pa.b, r.Lo, r.Hi)
}

// addMulAB computes dst += a·b with the row dimension parallelized
// (a: I×K, b: K×K, dst: I×K). Allocation-free: the operands travel
// through the Decomposer-owned argument block.
func (d *Decomposer) addMulAB(dst, a, b *dense.Matrix) {
	pa := &d.pargs
	pa.dst, pa.a, pa.b = dst, a, b
	d.pool.Do(a.Rows, d.opt.Workers, pa, addMulABBody)
	*pa = coreArgs{}
}

func addMulABBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	dense.AddMulABRange(pa.dst, pa.a, pa.b, r.Lo, r.Hi)
}

// solveRows computes dst = rhs·Φ⁻¹ using the shared Cholesky factor,
// each worker pushing its row range through the panel solve.
// Allocation-free like addMulAB.
func (d *Decomposer) solveRows(dst, rhs *dense.Matrix, chol *dense.Cholesky) {
	if dst.Rows != rhs.Rows || dst.Cols != rhs.Cols {
		panic("core: solveRows shape mismatch")
	}
	pa := &d.pargs
	pa.dst, pa.a, pa.chol = dst, rhs, chol
	d.pool.Do(rhs.Rows, d.opt.Workers, pa, solveRowsBody)
	*pa = coreArgs{}
}

func solveRowsBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	var dst, rhs dense.Matrix
	dst.SetRowView(pa.dst, r.Lo, r.Hi)
	rhs.SetRowView(pa.a, r.Lo, r.Hi)
	pa.chol.SolveRowsInto(&dst, &rhs)
}
