package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
)

// This file is the guarded half of the streaming runtime: context-aware
// slice processing with panic containment, a ridge-escalation recovery
// ladder for solver failures, post-slice numerical health checks, and
// rollback to an in-memory last-good snapshot with a configurable
// RetrySlice/SkipSlice/Abort policy. All of it is driven by
// Options.Resilience; with a nil config the context path still provides
// cancellation and panic-to-error conversion but never mutates recovery
// state.

// stateSnapshot is the rollback point of a guarded slice: the committed
// factor version, pinned for the length of the slice so nothing writes
// it (nil outside a slice), and a copy of the small state that crosses
// slice boundaries — C, G, sₜ and t. It is owned by the Decomposer and
// its storage is reused across slices, so steady-state snapshotting
// allocates nothing and copies O(N·K²).
type stateSnapshot struct {
	ver *Version
	c   []*dense.Matrix
	g   *dense.Matrix
	s   []float64
	t   int
}

// takeSnapshot captures the current between-slice state and pins the
// committed version until releaseSnapshot.
func (d *Decomposer) takeSnapshot() {
	if d.snap == nil {
		sn := &stateSnapshot{g: dense.NewMatrix(d.k, d.k), s: make([]float64, d.k)}
		for range d.dims {
			sn.c = append(sn.c, dense.NewMatrix(d.k, d.k))
		}
		d.snap = sn
	}
	sn := d.snap
	sn.ver = d.cur
	sn.ver.Pin()
	for m := range d.modes {
		sn.c[m].CopyFrom(d.modes[m].c)
	}
	sn.g.CopyFrom(d.g)
	copy(sn.s, d.s)
	sn.t = d.t
}

// releaseSnapshot ends the rollback point: the version it pinned may be
// written again.
func (d *Decomposer) releaseSnapshot() {
	if sn := d.snap; sn != nil && sn.ver != nil {
		sn.ver.Release()
		sn.ver = nil
	}
}

// rollback restores the last snapshot, reversing any partial mutation a
// failed, cancelled, or panicked slice left behind: the committed
// version is the pinned one again — the attempt's own, if it committed,
// goes back to spare — and the small state is copied back. H and
// tr(C_{t−1}) are not: beginSlice seeds both before anything reads them.
// It reports whether a snapshot was available.
func (d *Decomposer) rollback() bool {
	sn := d.snap
	if sn == nil || sn.ver == nil {
		return false
	}
	if d.cur != sn.ver {
		d.spare, d.cur = d.cur, sn.ver
	}
	for m := range d.modes {
		d.modes[m].c.CopyFrom(sn.c[m])
	}
	d.g.CopyFrom(sn.g)
	copy(d.s, sn.s)
	d.t = sn.t
	return true
}

// ResilienceStats returns a copy of the per-stream recovery counters;
// the checkpoint counts are the manager's.
func (d *Decomposer) ResilienceStats() resilience.Stats {
	st := d.stats
	if mgr := d.Checkpoints(); mgr != nil {
		st.CheckpointWrites, st.CheckpointErrors = mgr.Counts()
	}
	return st
}

// injectFault invokes the fault-injection hook (testing only; no-op
// without one).
func (d *Decomposer) injectFault(stage resilience.Stage, iter int) error {
	cfg := d.opt.Resilience
	if cfg == nil || cfg.FaultHook == nil {
		return nil
	}
	return cfg.FaultHook(resilience.Fault{Stage: stage, Slice: d.t, Iter: iter, Attempt: d.sliceAttempt})
}

// The recovery constants: a failed Φ factorization is retried at most
// maxFactorizeRetries times with a ridge of ridgeBoost·tr(Φ)/K, grown by
// ridgeGrowth per rung; RetrySlice and SkipSlice re-run a failed slice
// maxSliceRetries times from the snapshot.
const (
	ridgeBoost          = 1e-6
	ridgeGrowth         = 100
	maxFactorizeRetries = 3
	maxSliceRetries     = 1
)

// factorize runs the Φ Cholesky factorization with the recovery ladder:
// on ErrNotSPD (a numerically indefinite Gram, the classic CP-stream
// failure mode) it retries with an escalating ridge via
// dense.FactorRidge, bounded by maxFactorizeRetries, before giving up
// with the original error. Without a resilience config it is exactly
// chol.Factorize.
func (d *Decomposer) factorize(phi *dense.Matrix) error {
	err := d.injectFault(resilience.StageFactorize, d.iterNo)
	if err == nil {
		err = d.chol.Factorize(phi)
	}
	cfg := d.opt.Resilience
	if err == nil || cfg == nil || !errors.Is(err, dense.ErrNotSPD) {
		return err
	}
	boost := ridgeBoost * dense.Trace(phi) / float64(d.k)
	if !(boost > 0) || math.IsInf(boost, 0) { // catches NaN traces too
		boost = 1e-10
	}
	for attempt := 0; attempt < maxFactorizeRetries; attempt++ {
		d.stats.RidgeRetries++
		c, rerr := dense.FactorRidge(phi, boost)
		if rerr == nil {
			d.chol = *c
			d.stats.RidgeRecoveries++
			return nil
		}
		boost *= ridgeGrowth
	}
	return err
}

// healthCheck validates the numerical state a just-finished slice left
// behind, reading only what the slice wrote: finite convergence measure
// within the divergence guard; finite factor rows — every row after a
// slice that wrote them all, else each mode's nz rows (Version.wroteNZ)
// and the z rows it left stored, through the C_z the slice finished
// with (czCur) and the logged transforms; finite C, temporal weights,
// and temporal Gram. A z row turns non-finite only after its squared
// norm, and with it diag(C_z), has overflowed, so a finite C_z and log
// vouch for the rows the slice did not touch. Failures wrap
// resilience.ErrDiverged.
func (d *Decomposer) healthCheck(res *SliceResult) error {
	cfg := d.opt.Resilience
	if cfg == nil {
		return nil
	}
	if math.IsNaN(res.Delta) || math.IsInf(res.Delta, 0) || res.Delta > cfg.MaxDelta {
		return fmt.Errorf("core: slice t=%d finished with δ=%g: %w", res.T, res.Delta, resilience.ErrDiverged)
	}
	v := d.cur
	var row dense.Matrix
	for m := range v.modes {
		r, md := &v.modes[m], &d.modes[m]
		finite := !md.c.HasNaN()
		if !v.wroteNZ {
			finite = finite && !r.a.HasNaN()
		} else {
			finite = finite && !md.czCur.HasNaN()
			for _, i := range r.nz {
				row.SetRowView(r.a, int(i), int(i)+1)
				finite = finite && !row.HasNaN()
			}
		}
		for _, p := range r.log[:v.lag] {
			finite = finite && !p.HasNaN()
		}
		if !finite {
			return fmt.Errorf("core: slice t=%d produced a non-finite mode-%d factor: %w", res.T, m, resilience.ErrDiverged)
		}
	}
	for _, v := range d.s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: slice t=%d produced non-finite temporal weights: %w", res.T, resilience.ErrDiverged)
		}
	}
	if d.g.HasNaN() {
		return fmt.Errorf("core: slice t=%d produced a non-finite temporal Gram: %w", res.T, resilience.ErrDiverged)
	}
	return nil
}

// recoveredError converts a recovered panic value into an error that
// carries the panicking stack. Pool workers arrive pre-wrapped as
// *parallel.PanicError (with the worker's stack); anything else gets
// the current goroutine's stack, which still contains the panic frames
// when called from a deferred recover.
func recoveredError(r any) error {
	if pe, ok := r.(*parallel.PanicError); ok {
		return fmt.Errorf("core: panic in parallel kernel: %w", pe)
	}
	return fmt.Errorf("core: panic during slice processing: %v\n%s", r, debug.Stack())
}

// runSlice executes one slice attempt — resident or streamed, under
// either algorithm: one slice body — with panic containment and the
// solver-level cancellation check installed. It is the single choke
// point through which the guarded and unguarded paths process a slice,
// and holds the one inner loop: the context is checked at iteration
// boundaries (and inside long ADMM loops via the solver's cancel hook),
// so cancellation abandons the slice without tearing down mid-kernel.
func (d *Decomposer) runSlice(ctx context.Context, in sliceData) (res SliceResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			d.stats.PanicsRecovered++
			res.T, res.NNZ = d.t, in.nnz()
			err = recoveredError(r)
		}
	}()
	if d.solver != nil {
		d.solver.SetCancel(ctx.Err)
		defer d.solver.SetCancel(nil)
	}
	d.iterNo = 0
	// However the attempt ends, the kernel drops the slice it was
	// compiled for, so a reader the caller closes is not kept alive.
	defer d.kernel.End()
	if err := d.injectFault(resilience.StageBegin, 0); err != nil {
		return SliceResult{T: d.t, NNZ: in.nnz()}, err
	}
	run, err := d.beginSlice(in)
	if err != nil {
		return run.res, err
	}
	deltaPrev := math.Inf(1)
	for iter := 1; iter <= d.opt.MaxIters; iter++ {
		d.iterNo = iter
		if err := ctx.Err(); err != nil {
			return run.res, err
		}
		if err := d.injectFault(resilience.StageIterate, iter); err != nil {
			return run.res, err
		}
		run.res.Iters++
		d.bd.Iters++
		delta, err := d.iterateSlice(run)
		if err != nil {
			return run.res, err
		}
		run.res.Delta = delta
		if math.Abs(delta-deltaPrev) < d.opt.Tol {
			run.res.Converged = true
			break
		}
		deltaPrev = delta
	}
	return d.finishSlice(run)
}

// ProcessSliceContext advances the factorization by one time slice
// under the given context. Cancellation (including the per-slice
// deadline from the resilience config) is honoured between inner
// iterations, so the slice is abandoned at a consistent state boundary.
// With Options.Resilience set, the guarded path applies, in order: the
// input scan, the in-slice recovery ladder, the post-slice health
// check, and — on failure — rollback to the last-good snapshot plus the
// configured policy. A skipped slice returns an error wrapping
// resilience.ErrSliceSkipped alongside a result with Skipped set; the
// decomposer remains at its pre-slice state and can keep streaming.
func (d *Decomposer) ProcessSliceContext(ctx context.Context, x *sptensor.Tensor) (SliceResult, error) {
	return d.processSlice(ctx, sliceData{x: x})
}

// processSlice is the one slice entry, shared by ProcessSliceContext
// and ProcessBlockSliceContext: shape check, the guarded run, and the
// commit hook.
func (d *Decomposer) processSlice(ctx context.Context, in sliceData) (SliceResult, error) {
	if in.x == nil && in.src == nil {
		return SliceResult{}, fmt.Errorf("core: nil slice")
	}
	if err := d.checkDims(in.dims()); err != nil {
		return SliceResult{}, err
	}
	if in.src != nil {
		var err error
		if in, err = d.stageBlocks(in.src); err != nil {
			return SliceResult{}, err
		}
	}
	res, err := d.guardedRun(ctx, in)
	if err == nil && d.commitHook != nil {
		// The slice is committed: every return path with err == nil has
		// passed the health check (guarded mode) and advanced t.
		// Rollback/skip/cancel paths all carry non-nil errors, so the
		// hook observes only states that will never be retracted.
		d.commitHook(res)
	}
	return res, err
}

// guardedRun wraps one slice (resident or streamed) in the resilience
// policy: input scan, snapshot, the retry loop with per-attempt timeout,
// health check, and rollback + policy on failure. With a nil resilience
// config it is exactly runSlice.
func (d *Decomposer) guardedRun(ctx context.Context, in sliceData) (SliceResult, error) {
	cfg := d.opt.Resilience
	if cfg == nil {
		return d.runSlice(ctx, in)
	}
	if !cfg.DisableInputScan {
		if err := d.scan(in); err != nil {
			d.stats.InputRejects++
			res := SliceResult{T: d.t, NNZ: in.nnz()}
			if cfg.Policy == resilience.SkipSlice {
				d.stats.SlicesSkipped++
				res.Skipped = true
				return res, fmt.Errorf("core: slice t=%d rejected by input scan (%v): %w", d.t, err, resilience.ErrSliceSkipped)
			}
			return res, fmt.Errorf("core: slice t=%d rejected by input scan: %w", d.t, err)
		}
	}
	d.takeSnapshot()
	defer d.releaseSnapshot()
	var res SliceResult
	var err error
	for attempt := 0; ; attempt++ {
		d.sliceAttempt = attempt
		runCtx, cancel := ctx, context.CancelFunc(func() {})
		if cfg.SliceTimeout > 0 {
			runCtx, cancel = context.WithTimeout(ctx, cfg.SliceTimeout)
		}
		res, err = d.runSlice(runCtx, in)
		if err == nil {
			if herr := d.healthCheck(&res); herr != nil {
				d.stats.HealthFailures++
				err = herr
			}
		}
		cancel()
		if err == nil {
			res.Retries = attempt
			d.sliceAttempt = 0
			return res, nil
		}
		// Failed attempt: reverse whatever it mutated.
		d.rollback()
		d.stats.Rollbacks++
		if ctx.Err() != nil {
			// The caller's context ended — no policy applies; the
			// decomposer sits at the last-good snapshot, checkpointable
			// and resumable.
			d.stats.Cancellations++
			d.sliceAttempt = 0
			return res, ctx.Err()
		}
		if errors.Is(err, context.DeadlineExceeded) {
			d.stats.Timeouts++
		}
		if cfg.Policy == resilience.Abort {
			d.sliceAttempt = 0
			return res, err
		}
		if attempt < maxSliceRetries {
			d.stats.SliceRetries++
			continue
		}
		d.sliceAttempt = 0
		if cfg.Policy == resilience.SkipSlice {
			d.stats.SlicesSkipped++
			res.Retries = attempt
			res.Skipped = true
			return res, fmt.Errorf("core: slice t=%d dropped after %d attempts (%v): %w", d.t, attempt+1, err, resilience.ErrSliceSkipped)
		}
		return res, err
	}
}

// Checkpoints returns the checkpoint manager the decomposer was
// configured with (Options.Resilience.Checkpoint), nil for none. The
// slice loops that own a run read it here — ProcessStreamContext below,
// and the ingest pipeline, which sets the WAL cursor (SetCursor) before
// each checkpoint it writes.
func (d *Decomposer) Checkpoints() *resilience.Manager {
	if d.opt.Resilience == nil {
		return nil
	}
	return d.opt.Resilience.Checkpoint
}

// ProcessStreamContext drains a slice source under a context, invoking
// cb (if non-nil) after every slice, including skipped ones. Slices
// skipped under the SkipSlice policy are recorded and the stream
// continues; any other error stops the drain. When the resilience
// config carries a checkpoint manager, the state is checkpointed
// crash-safely every manager interval; checkpoint write failures are
// counted by the manager, not fatal — losing a checkpoint must not kill
// the stream it exists to protect.
func (d *Decomposer) ProcessStreamContext(ctx context.Context, src sptensor.SliceSource, cb func(SliceResult)) ([]SliceResult, error) {
	mgr := d.Checkpoints()
	var out []SliceResult
	for {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		x := src.Next()
		if x == nil {
			return out, nil
		}
		res, err := d.ProcessSliceContext(ctx, x)
		if err != nil && !errors.Is(err, resilience.ErrSliceSkipped) {
			return out, err
		}
		out = append(out, res)
		if cb != nil {
			cb(res)
		}
		if err == nil && mgr != nil {
			mgr.MaybeWrite(d.t, d)
		}
	}
}
