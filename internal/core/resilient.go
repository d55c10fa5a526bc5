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

// stateSnapshot is a deep copy of exactly the state that crosses slice
// boundaries (the same set SaveState serializes). It is owned by the
// Decomposer and its storage is reused across slices, so steady-state
// snapshotting allocates nothing.
type stateSnapshot struct {
	valid    bool
	a, c, cz []*dense.Matrix
	g        *dense.Matrix
	s        []float64
	histLen  int
	t        int
	hasNZ    bool
	prevNZ   [][]int32
}

// takeSnapshot captures the current between-slice state.
func (d *Decomposer) takeSnapshot() {
	if d.snap == nil {
		sn := &stateSnapshot{
			g:      dense.NewMatrix(d.k, d.k),
			s:      make([]float64, d.k),
			prevNZ: make([][]int32, d.n),
		}
		for _, dim := range d.dims {
			sn.a = append(sn.a, dense.NewMatrix(dim, d.k))
			sn.c = append(sn.c, dense.NewMatrix(d.k, d.k))
			sn.cz = append(sn.cz, dense.NewMatrix(d.k, d.k))
		}
		d.snap = sn
	}
	sn := d.snap
	for m := range d.a {
		sn.a[m].CopyFrom(d.a[m])
		sn.c[m].CopyFrom(d.c[m])
		sn.cz[m].CopyFrom(d.cz[m])
	}
	sn.g.CopyFrom(d.g)
	copy(sn.s, d.s)
	sn.histLen = len(d.sHist)
	sn.t = d.t
	sn.hasNZ = d.prevNZ != nil
	if sn.hasNZ {
		for m := range d.prevNZ {
			sn.prevNZ[m] = append(sn.prevNZ[m][:0], d.prevNZ[m]...)
		}
	}
	sn.valid = true
}

// rollback restores the last snapshot, reversing any partial mutation a
// failed, cancelled, or panicked slice left behind. It reports whether
// a snapshot was available.
func (d *Decomposer) rollback() bool {
	sn := d.snap
	if sn == nil || !sn.valid {
		return false
	}
	for m := range d.a {
		d.a[m].CopyFrom(sn.a[m])
		d.c[m].CopyFrom(sn.c[m])
		d.cz[m].CopyFrom(sn.cz[m])
		// Re-seed the slice-start invariants the begin phase established.
		d.cPrev[m].CopyFrom(sn.c[m])
		d.h[m].CopyFrom(sn.c[m])
	}
	d.g.CopyFrom(sn.g)
	copy(d.s, sn.s)
	d.sHist = d.sHist[:sn.histLen]
	d.t = sn.t
	if !sn.hasNZ {
		d.prevNZ = nil
	} else {
		if d.prevNZ == nil {
			d.prevNZ = make([][]int32, d.n)
		}
		for m := range sn.prevNZ {
			d.prevNZ[m] = append(d.prevNZ[m][:0], sn.prevNZ[m]...)
		}
	}
	return true
}

// ResilienceStats returns a copy of the per-stream recovery counters.
func (d *Decomposer) ResilienceStats() resilience.Stats { return d.stats }

// injectFault invokes the fault-injection hook (testing only; no-op
// without one).
func (d *Decomposer) injectFault(stage resilience.Stage, iter int) error {
	cfg := d.opt.Resilience
	if cfg == nil || cfg.FaultHook == nil {
		return nil
	}
	return cfg.FaultHook(resilience.Fault{Stage: stage, Slice: d.t, Iter: iter, Attempt: d.sliceAttempt})
}

// factorize runs the Φ Cholesky factorization with the recovery ladder:
// on ErrNotSPD (a numerically indefinite Gram, the classic CP-stream
// failure mode) it retries with an escalating ridge via
// dense.FactorRidge, bounded by MaxFactorizeRetries, before giving up
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
	boost := cfg.RidgeBoost * dense.Trace(phi) / float64(d.k)
	if !(boost > 0) || math.IsInf(boost, 0) { // catches NaN traces too
		boost = 1e-10
	}
	for attempt := 0; attempt < cfg.MaxFactorizeRetries; attempt++ {
		d.stats.RidgeRetries++
		c, rerr := dense.FactorRidge(phi, boost)
		if rerr == nil {
			d.chol = *c
			d.stats.RidgeRecoveries++
			return nil
		}
		boost *= cfg.RidgeGrowth
	}
	return err
}

// scanSliceInput rejects slices that would corrupt the factorization:
// out-of-range or negative coordinates (which panic inside kernels) and
// non-finite values (which propagate NaN into every factor).
func scanSliceInput(x *sptensor.Tensor) error {
	if err := x.Validate(); err != nil {
		return err
	}
	for e, v := range x.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sptensor: nonzero %d has non-finite value %g", e, v)
		}
	}
	return nil
}

// healthCheck validates the numerical state a just-finished slice left
// behind: finite convergence measure within the divergence guard,
// finite factors, temporal weights, and temporal Gram, and (optionally)
// the fit floor. Failures wrap resilience.ErrDiverged.
func (d *Decomposer) healthCheck(res *SliceResult) error {
	cfg := d.opt.Resilience
	if cfg == nil {
		return nil
	}
	if math.IsNaN(res.Delta) || math.IsInf(res.Delta, 0) || res.Delta > cfg.MaxDelta {
		return fmt.Errorf("core: slice t=%d finished with δ=%g: %w", res.T, res.Delta, resilience.ErrDiverged)
	}
	for m := range d.a {
		if d.a[m].HasNaN() {
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
	if cfg.FitFloor != 0 && d.opt.TrackFit && !math.IsNaN(res.Fit) && res.Fit < cfg.FitFloor {
		return fmt.Errorf("core: slice t=%d fit %g below floor %g: %w", res.T, res.Fit, cfg.FitFloor, resilience.ErrDiverged)
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

// runSlice executes one slice attempt — resident or streamed, explicit
// or Gram-form — with panic containment and the solver-level
// cancellation check installed. It is the single choke point through
// which the guarded and unguarded paths process a slice, and holds the
// one inner loop: the context is checked at iteration boundaries (and
// inside long ADMM loops via the solver's cancel hook), so cancellation
// abandons the slice without tearing down mid-kernel.
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
	// However the attempt ends, its ψ is no later attempt's or FitOf's.
	defer func() { d.psiFresh = false }()
	if err := d.injectFault(resilience.StageBegin, 0); err != nil {
		return SliceResult{T: d.t, NNZ: in.nnz()}, err
	}
	if in.src != nil {
		// The streamed kernel holds the source from begin on; drop it
		// however the slice ends, so a reader the caller closes is not
		// kept alive.
		defer d.streamKernel().End()
	}
	// The Gram-form recurrence needs the resident slice (its nz sets come
	// from a remap); a streamed slice runs the explicit body under every
	// algorithm.
	var (
		ex  *explicitRun
		sp  *spcpRun
		out *SliceResult
	)
	if d.opt.Algorithm == SpCPStream && in.src == nil {
		sp, err = d.beginSpCP(in.x)
		out = &sp.res
	} else {
		ex, err = d.beginExplicit(in)
		out = &ex.res
	}
	if err != nil {
		return *out, err
	}
	deltaPrev := math.Inf(1)
	for iter := 1; iter <= d.opt.MaxIters; iter++ {
		d.iterNo = iter
		if err := ctx.Err(); err != nil {
			return *out, err
		}
		if err := d.injectFault(resilience.StageIterate, iter); err != nil {
			return *out, err
		}
		out.Iters++
		d.bd.Iters++
		var delta float64
		if sp != nil {
			delta, err = d.iterateSpCP(sp)
		} else {
			delta, err = d.iterateExplicit(ex)
		}
		if err != nil {
			return *out, err
		}
		out.Delta = delta
		if math.Abs(delta-deltaPrev) < d.opt.Tol {
			out.Converged = true
			break
		}
		deltaPrev = delta
	}
	if sp != nil {
		return d.finishSpCP(sp), nil
	}
	return d.finishExplicit(ex)
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
		if err := in.scan(); err != nil {
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
		if attempt < cfg.MaxSliceRetries {
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
// and the ingest pipeline, which must commit its WAL offset before each
// checkpoint it writes.
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
// counted, not fatal — losing a checkpoint must not kill the stream it
// exists to protect.
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
			if path, werr := mgr.MaybeWrite(d.t, d); werr != nil {
				d.stats.CheckpointErrors++
			} else if path != "" {
				d.stats.CheckpointWrites++
			}
		}
	}
}
