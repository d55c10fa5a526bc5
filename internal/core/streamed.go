package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/perfmodel"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// Out-of-core slice evaluation. A slice arriving as a sptensor.BlockSource
// (an .spblk reader, or any block iterator) is first sized against
// Options.MemBudget by perfmodel.SelectEval:
//
//   - EvalInMemory: the blocks are materialized into one tensor and the
//     slice takes the regular ProcessSliceContext path — kernel table,
//     adaptive layout, and all.
//   - EvalStreamed: the slice never materializes. Every kernel —
//     factor-mode MTTKRP, the streaming-mode (time) MTTKRP, the fit's
//     ‖X‖² — streams over the blocks via mttkrp.StreamKernel, so the
//     resident set is one decoded block per worker plus the factor
//     matrices, independent of the slice's nonzero count.
//
// The streamed path runs the explicit (Algorithm 1) update with the
// optimized kernels: the streamed factor-mode MTTKRP is bit-identical
// to the compiled coordinate plan (mttkrp.PlanMTTKRP) and the streamed
// time-mode reduction is bit-identical to the thread-local in-memory
// reduction, both for any worker count — so on the same input (the
// block concatenation) a streamed slice produces bit-identical factors,
// temporal weights, and fit to the in-memory Optimized/KernelPlan run.
// The Baseline algorithm's deliberately contended lock kernels and the
// spCP-stream Gram-form recurrence have no out-of-core counterpart:
// under EvalStreamed those configurations run this same explicit
// streamed update. Constrained problems are supported — ADMM consumes
// the full Ψ⁽ⁿ⁾, which the streamed MTTKRP materializes per mode just
// like the in-memory path. Adaptive layout and per-mode kernel
// selection are in-memory concerns and stay off here.

// LastEvalMode reports where the most recent ProcessBlockSlice ran
// (in-memory after materialization, or streamed out of core). Slices
// fed through ProcessSlice do not update it.
func (d *Decomposer) LastEvalMode() perfmodel.EvalMode { return d.lastEval }

// streamKernel lazily creates the pooled streaming kernel. It shares
// the Decomposer's mttkrp.Computer, so worker count and scratch follow
// the same configuration as the in-memory kernels.
func (d *Decomposer) streamKernel() *mttkrp.StreamKernel {
	if d.sk == nil {
		d.sk = mttkrp.NewStreamKernel(d.mt)
	}
	return d.sk
}

// checkBlockSource validates a block source's shape against the
// decomposer (the BlockSource analog of checkSlice).
func (d *Decomposer) checkBlockSource(src sptensor.BlockSource) error {
	if src == nil {
		return fmt.Errorf("core: nil block source")
	}
	dims := src.Dims()
	if len(dims) != d.n {
		return fmt.Errorf("core: block source has %d modes, decomposer expects %d", len(dims), d.n)
	}
	for m, dim := range dims {
		if dim != d.dims[m] {
			return fmt.Errorf("core: block source mode %d length %d ≠ %d", m, dim, d.dims[m])
		}
	}
	return nil
}

// scanBlockInput is the guarded path's input scan for block sources:
// every block must decode, validate, and carry finite values, and the
// per-block counts must add up to the advertised total.
func scanBlockInput(src sptensor.BlockSource) error {
	total := 0
	for b := 0; b < src.Blocks(); b++ {
		blk, err := src.Block(b)
		if err != nil {
			return err
		}
		if err := scanSliceInput(blk); err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
		total += blk.NNZ()
	}
	if total != src.NNZ() {
		return fmt.Errorf("sptensor: block source reports %d nonzeros, blocks hold %d", src.NNZ(), total)
	}
	return nil
}

// ProcessBlockSlice advances the factorization by one time slice
// delivered as blocks. It is ProcessBlockSliceContext with a background
// context.
func (d *Decomposer) ProcessBlockSlice(src sptensor.BlockSource) (SliceResult, error) {
	return d.ProcessBlockSliceContext(context.Background(), src)
}

// ProcessBlockSliceContext advances the factorization by one time slice
// delivered as a block source, choosing between materializing it (the
// regular in-memory path) and streaming it out of core according to
// Options.MemBudget. Context semantics, the resilience policy, and the
// commit hook behave exactly as in ProcessSliceContext.
func (d *Decomposer) ProcessBlockSliceContext(ctx context.Context, src sptensor.BlockSource) (SliceResult, error) {
	if err := d.checkBlockSource(src); err != nil {
		return SliceResult{}, err
	}
	mode := d.sel.SelectEval(src.NNZ(), d.n, d.opt.MemBudget)
	d.lastEval = mode
	if mode == perfmodel.EvalInMemory {
		x, err := sptensor.MaterializeBlocks(src)
		if err != nil {
			return SliceResult{}, fmt.Errorf("core: materializing block slice: %w", err)
		}
		return d.ProcessSliceContext(ctx, x)
	}
	res, err := d.guardedRun(ctx, src.NNZ(),
		func() error { return scanBlockInput(src) },
		func(runCtx context.Context) (SliceResult, error) { return d.runBlockSlice(runCtx, src) })
	if err == nil && d.commitHook != nil {
		d.commitHook(res)
	}
	return res, err
}

// runBlockSlice executes one streamed slice attempt with the same panic
// containment and solver cancellation hook as runSlice.
func (d *Decomposer) runBlockSlice(ctx context.Context, src sptensor.BlockSource) (res SliceResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			d.stats.PanicsRecovered++
			res.T, res.NNZ = d.t, src.NNZ()
			err = recoveredError(r)
		}
	}()
	if d.solver != nil {
		d.solver.SetCancel(ctx.Err)
		defer d.solver.SetCancel(nil)
	}
	d.iterNo = 0
	if err := d.injectFault(resilience.StageBegin, 0); err != nil {
		return SliceResult{T: d.t, NNZ: src.NNZ()}, err
	}
	return d.processSliceStreamed(ctx, src)
}

// streamedRun is the explicitRun counterpart for out-of-core slices:
// no compiled plan, no remapping — just the source and the convergence
// state.
type streamedRun struct {
	src       sptensor.BlockSource
	optimized bool
	deltaPrev float64
	res       SliceResult
}

// processSliceStreamed runs one time slice of Algorithm 1 entirely out
// of core, mirroring processSliceExplicit's begin/iterate/finish shape.
func (d *Decomposer) processSliceStreamed(ctx context.Context, src sptensor.BlockSource) (SliceResult, error) {
	// The kernel holds the source from Begin on; drop it however the
	// slice ends, so a reader the caller closes is not kept alive.
	defer d.streamKernel().End()
	run, err := d.beginStreamed(src)
	if err != nil {
		return run.res, err
	}
	for iter := 1; iter <= d.opt.MaxIters; iter++ {
		d.iterNo = iter
		if err := ctx.Err(); err != nil {
			return run.res, err
		}
		if err := d.injectFault(resilience.StageIterate, iter); err != nil {
			return run.res, err
		}
		converged, err := d.iterateStreamed(run)
		if err != nil {
			return run.res, err
		}
		if converged {
			run.res.Converged = true
			break
		}
	}
	return d.finishStreamed(run)
}

// beginStreamed performs the per-slice Pre work: snapshot A_{t-1} and
// C_{t-1}, seed H = C, compile the streamed kernel's per-worker row and
// block schedule for the source, and solve the sₜ warm start over the
// blocks. There is no kernel table or layout to resolve — every kernel
// streams.
func (d *Decomposer) beginStreamed(src sptensor.BlockSource) (*streamedRun, error) {
	run := &streamedRun{
		src:       src,
		optimized: d.opt.Algorithm != Baseline,
		deltaPrev: math.Inf(1),
		res:       SliceResult{T: d.t, NNZ: src.NNZ(), Fit: math.NaN()},
	}
	var err error
	d.bd.Time(trace.Pre, func() {
		for m := range d.a {
			d.prevA[m].CopyFrom(d.a[m])
			d.cPrev[m].CopyFrom(d.c[m])
			d.h[m].CopyFrom(d.c[m])
		}
		// The layout manager never sees streamed slices; clear the last
		// decision so diagnostics don't report a stale remap.
		d.lastDec = perfmodel.Decision{}
		if err = d.streamKernel().Begin(src); err != nil {
			err = fmt.Errorf("core: streamed schedule: %w", err)
			return
		}
		err = d.solveSStreamed(src)
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.Misc, d.buildMuG)
	d.ensurePsi()
	return run, nil
}

// iterateStreamed is iterateExplicit's plain (non-remapped) branch with
// every sparse kernel replaced by its streaming twin. The dense algebra
// between kernels (Φ/Q Hadamards, Cholesky, Gram and cross-Gram
// refreshes, δ) is byte-for-byte the same code the in-memory path runs.
func (d *Decomposer) iterateStreamed(run *streamedRun) (bool, error) {
	run.res.Iters++
	d.bd.Iters++
	phi := d.scratch1
	q := d.scratch2
	sk := d.streamKernel()
	for n := 0; n < d.n; n++ {
		t0 := time.Now()
		d.buildPhi(phi, n)
		err := d.factorize(phi)
		d.bd.Add(trace.Inverse, time.Since(t0))
		if err != nil {
			return false, fmt.Errorf("core: mode %d Φ factorization: %w", n, err)
		}
		// Ψ⁽ⁿ⁾ = MTTKRP(Xₜ, {A}, n)·diag(sₜ), the MTTKRP streamed over
		// the blocks (bit-identical to the compiled plan kernel).
		t0 = time.Now()
		if err := sk.MTTKRP(d.psi[n], run.src, d.a, n); err != nil {
			return false, fmt.Errorf("core: mode %d streamed MTTKRP: %w", n, err)
		}
		dense.ScaleColumns(d.psi[n], d.psi[n], d.s)
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		t0 = time.Now()
		d.buildQ(q, n)
		d.addMulAB(d.psi[n], d.prevA[n], q)
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		if d.opt.Constraint == nil {
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
			return false, fmt.Errorf("core: mode %d ADMM: %w", n, err)
		}
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
	t0 := time.Now()
	err := d.solveSStreamed(run.src)
	d.bd.Add(trace.MTTKRP, time.Since(t0))
	if err != nil {
		return false, err
	}
	t0 = time.Now()
	d.buildMuG()
	d.bd.Add(trace.Misc, time.Since(t0))
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
	run.res.Delta = delta
	converged := math.Abs(delta-run.deltaPrev) < d.opt.Tol
	run.deltaPrev = delta
	return converged, nil
}

// finishStreamed performs the Post work (streamed fit tracking, G/S
// temporal update) and returns the slice result.
func (d *Decomposer) finishStreamed(run *streamedRun) (SliceResult, error) {
	if d.opt.TrackFit {
		var err error
		d.bd.Time(trace.Misc, func() { run.res.Fit, err = d.streamedFit(run.src) })
		if err != nil {
			return run.res, err
		}
	}
	d.bd.Time(trace.Post, d.finishSlice)
	return run.res, nil
}

// solveSStreamed is solveS with the streaming-mode MTTKRP taken over
// the blocks. The streamed reduction is the thread-local one (the
// Baseline algorithm's single-lock variant has no streamed twin), so
// it matches the in-memory Optimized path bit for bit.
func (d *Decomposer) solveSStreamed(src sptensor.BlockSource) error {
	phi := d.sPhi
	phi.Fill(1)
	for m := range d.c {
		dense.Hadamard(phi, phi, d.c[m])
	}
	dense.AddScaledIdentity(phi, phi, d.opt.StreamRidge)
	if err := d.streamKernel().TimeMode(d.s, src, d.a); err != nil {
		return fmt.Errorf("core: streamed sₜ MTTKRP: %w", err)
	}
	if err := d.factorize(phi); err != nil {
		return fmt.Errorf("core: sₜ solve: %w", err)
	}
	d.chol.SolveVec(d.s)
	return nil
}

// streamedFit is sliceFit out of core: ‖X‖² accumulates block by block
// in block order — the same left-to-right summation Norm2 performs on
// the materialized concatenation — and ψ comes from the streamed
// time-mode kernel, so the fit matches the in-memory value bit for bit.
func (d *Decomposer) streamedFit(src sptensor.BlockSource) (float64, error) {
	xnorm2 := 0.0
	for b := 0; b < src.Blocks(); b++ {
		blk, err := src.Block(b)
		if err != nil {
			return math.NaN(), fmt.Errorf("core: streamed fit: %w", err)
		}
		for _, v := range blk.Vals {
			xnorm2 += v * v
		}
	}
	if xnorm2 == 0 {
		return math.NaN(), nil
	}
	psi := d.fitPsi
	if err := d.streamKernel().TimeMode(psi, src, d.a); err != nil {
		return math.NaN(), fmt.Errorf("core: streamed fit: %w", err)
	}
	return d.fitFrom(xnorm2, psi), nil
}
