package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"spstream/internal/core"
	"spstream/internal/ingest/wal"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// Processor consumes slices; implemented by core.Decomposer. What else
// a processor can do is found by type assertion: Tunable (degradation),
// checkpointer (the replay point and checkpoints).
type Processor interface {
	ProcessSliceContext(ctx context.Context, x *sptensor.Tensor) (core.SliceResult, error)
}

// checkpointer is the optional capability a checkpointed run rests on
// (core.Decomposer has it): the slice counter checkpoints are keyed by,
// the WAL cursor the state carries (the replay point), the state a
// checkpoint holds, and the manager the run was configured with
// (Options.Resilience.Checkpoint; nil for none).
type checkpointer interface {
	T() int
	Cursor() uint64
	SetCursor(seq uint64)
	resilience.StateWriter
	Checkpoints() *resilience.Manager
}

// ErrDraining is returned by Offer once Drain has begun (or the
// pipeline's context ended); the offered slice is accounted as shed.
var ErrDraining = errors.New("ingest: pipeline is draining")

// ErrGateClosed is returned by Offer/Admit when the admission gate
// (Config.Gate — the serving layer's circuit breaker) refused the
// slice; it is accounted as a breaker shed.
var ErrGateClosed = errors.New("ingest: admission gate closed (circuit breaker open)")

// ErrDurability wraps what OnError receives when the WAL flush before a
// checkpoint, the checkpoint write or the WAL close failed: the slice
// outcomes stand, what is in doubt is how much of them a crash would
// keep.
var ErrDurability = errors.New("ingest: durability")

// ErrQueueFull is returned by Admit when the full-queue policy shed
// the offered slice instead of queueing it (DropNewest). Offer keeps
// its fire-and-forget contract and returns nil for policy sheds; Admit
// exists for admission-controlled producers (the HTTP serving layer)
// that must translate the shed into backpressure (429 Retry-After).
var ErrQueueFull = errors.New("ingest: queue full, slice shed")

// Config parameterizes a Pipeline. The zero value is a bounded
// blocking (backpressure) pipeline with no lag shedding and no
// degradation.
type Config struct {
	// QueueCap bounds the producer→consumer backlog, in slices.
	// Default 8. Memory is therefore bounded by QueueCap windows (plus
	// the slice being solved), whatever the producer does.
	QueueCap int
	// Policy selects what happens to new slices when the queue is
	// full. Default Block.
	Policy ShedPolicy
	// MaxLag, when positive, is the admission-to-solve deadline: a
	// slice older than MaxLag at pop time is shed without solving, and
	// the deadline is propagated through ProcessSliceContext so a
	// solve that starts in time but overruns is abandoned at an
	// iteration boundary (rolled back when resilience is configured).
	MaxLag time.Duration
	// Degrade arms the lag-aware degradation controller, which takes
	// MaxLag as its lag target; the Processor must then implement
	// Tunable.
	Degrade bool
	// DrainTimeout bounds how long Drain processes the backlog before
	// shedding what remains. Default 30s.
	DrainTimeout time.Duration
	// OnResult, when non-nil, is invoked from the consumer goroutine
	// after every successfully processed slice.
	OnResult func(core.SliceResult)
	// OnError, when non-nil, is invoked for per-slice errors the
	// pipeline absorbed (failed or skipped slices); fatal errors
	// surface from Drain instead.
	OnError func(error)
	// Clock replaces time.Now (testing). With a non-standard clock the
	// context-deadline propagation is disabled (the fake instants are
	// meaningless to the runtime timer); pop-time staleness shedding
	// still applies.
	Clock func() time.Time
	// Gate, when non-nil, is consulted before every Offer/Admit touches
	// the queue; a false return sheds the slice (counted in
	// ShedBreaker) and surfaces ErrGateClosed to the producer. The
	// serving layer wires its circuit breaker's Allow here so an
	// unhealthy solver stops admissions at the front door, keeping the
	// accounting invariant produced == processed+failed+coalesced+shed
	// exact across breaker-open phases.
	Gate func() bool
	// Spill configures the durable on-disk backlog. A non-empty
	// Spill.Dir implies the Spill policy, and the Spill policy requires
	// one; without a Dir the rest of the struct is ignored.
	Spill *SpillConfig
}

// Pipeline is the bounded, overload-robust conveyor between a slice
// producer and a Processor. Producers call Offer (any goroutine);
// Start launches the consumer loop; Drain performs the graceful
// shutdown. Counters live in a trace.Overload and satisfy, after
// Drain:
//
//	produced == processed + failed + coalesced + shed
type Pipeline struct {
	cfg      Config
	proc     Processor
	ctrl     *Controller
	q        *queue
	sp       *spiller
	ov       trace.Overload
	clock    func() time.Time
	realTime bool

	// ckpt is set when the processor is a checkpointer, mgr when it also
	// carries a checkpoint manager; cursors holds the cursor of every
	// checkpoint this run wrote that the manager still keeps, by path.
	ckpt    checkpointer
	mgr     *resilience.Manager
	cursors map[string]uint64

	// consumedSeq is the highest WAL sequence number of a slice the
	// consumer fully finished (processed, failed, or stale-shed —
	// outcomes an uncrashed run would reproduce), seeded from the
	// restored state's cursor. Every checkpoint carries it, so replay
	// after a crash is exactly-once.
	consumedSeq atomic.Uint64

	cancel context.CancelFunc
	done   chan struct{}
}

// New validates the configuration and builds a pipeline around proc.
func New(proc Processor, cfg Config) (*Pipeline, error) {
	if proc == nil {
		return nil, errors.New("ingest: nil processor")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 8
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Spill != nil && cfg.Spill.Dir != "" {
		cfg.Policy = Spill
	} else if cfg.Policy == Spill {
		return nil, errors.New("ingest: the spill policy requires a spill directory")
	}
	p := &Pipeline{cfg: cfg, proc: proc, clock: cfg.Clock, realTime: cfg.Clock == nil}
	if p.clock == nil {
		p.clock = time.Now
	}
	if c, ok := proc.(checkpointer); ok {
		// Replay starts after the slices already folded into the
		// processor's (restored) state.
		p.ckpt, p.mgr = c, c.Checkpoints()
		p.cursors = map[string]uint64{}
		p.consumedSeq.Store(c.Cursor())
	}
	if cfg.Degrade {
		tun, ok := proc.(Tunable)
		if !ok {
			return nil, fmt.Errorf("ingest: degradation requires a Tunable processor, got %T", proc)
		}
		p.ctrl = NewController(tun, cfg.MaxLag, &p.ov)
	}
	p.q = newQueue(cfg.QueueCap, cfg.Policy, p.clock, &p.ov)
	if cfg.Policy == Spill {
		sp, err := newSpiller(*cfg.Spill, p.consumedSeq.Load(), p.q, &p.ov, p.clock)
		if err != nil {
			return nil, err
		}
		p.sp = sp
	}
	p.done = make(chan struct{})
	return p, nil
}

// Start launches the consumer loop. The context cancels in-flight and
// future work (an emergency stop); use Drain for a graceful shutdown.
func (p *Pipeline) Start(ctx context.Context) {
	ctx, p.cancel = context.WithCancel(ctx)
	if p.sp != nil {
		p.sp.start()
	}
	go p.loop(ctx)
}

// Offer submits one slice from a producer. Under the Block policy it
// waits for queue space (backpressure); under the shedding policies it
// returns immediately. Every offered slice is counted exactly once:
// queued, shed, or coalesced. After Drain begins, Offer returns
// ErrDraining (the slice is accounted as drain-shed); a closed
// admission gate returns ErrGateClosed. Policy sheds return nil — a
// fire-and-forget feed should keep feeding.
func (p *Pipeline) Offer(x *sptensor.Tensor) error {
	err := p.admit(x)
	if errors.Is(err, ErrQueueFull) {
		return nil
	}
	return err
}

// Admit is Offer for admission-controlled producers: identical
// accounting, but sheds at the admission boundary are reported —
// ErrGateClosed when the gate (circuit breaker) refused, ErrQueueFull
// when the DropNewest policy shed the slice, ErrDraining after Drain
// began. Under DropOldest/Coalesce the new slice is always absorbed
// (nil), at the cost of older data; under Block, Admit waits like
// Offer does.
func (p *Pipeline) Admit(x *sptensor.Tensor) error {
	return p.admit(x)
}

// admit is the shared admission path; it classifies every produced
// slice exactly once.
func (p *Pipeline) admit(x *sptensor.Tensor) error {
	p.ov.Produced.Add(1)
	if p.cfg.Gate != nil && !p.cfg.Gate() {
		p.ov.ShedBreaker.Add(1)
		return ErrGateClosed
	}
	if p.sp != nil {
		if p.q.isClosed() {
			p.ov.ShedDrain.Add(1)
			return ErrDraining
		}
		// Queue if room and no backlog ahead, else durably to the WAL;
		// an error means the slice could not be made durable (shed).
		return p.sp.admit(x)
	}
	if !p.q.push(x) {
		// push already classified the slice (shed or coalesced); the
		// producer-visible errors are a closed queue and a DropNewest
		// shed.
		if p.q.isClosed() {
			return ErrDraining
		}
		if p.cfg.Policy == DropNewest {
			return ErrQueueFull
		}
	}
	return nil
}

// WindowFactor returns the degradation controller's current window
// multiplier (1 without a controller). Producers poll it between
// events to widen their accumulation window under load.
func (p *Pipeline) WindowFactor() int {
	if p.ctrl == nil {
		return 1
	}
	return p.ctrl.WindowFactor()
}

// Level returns the controller's ladder level (0 without a controller).
func (p *Pipeline) Level() int {
	if p.ctrl == nil {
		return 0
	}
	return p.ctrl.Level()
}

// Depth returns the current queue backlog, in slices.
func (p *Pipeline) Depth() int { return p.q.depth() }

// SpillPending returns the durable backlog not yet re-admitted to the
// queue (0 without the Spill policy).
func (p *Pipeline) SpillPending() int64 {
	if p.sp == nil {
		return 0
	}
	return int64(p.sp.pending())
}

// SpillDiskBytes returns the WAL's on-disk footprint (0 without the
// Spill policy).
func (p *Pipeline) SpillDiskBytes() int64 {
	if p.sp == nil {
		return 0
	}
	return p.sp.log.DiskBytes()
}

// checkpoint is the whole durability protocol of a run (DESIGN §13):
// when checkpoint t is due — or final, at drain — flush the WAL's group
// commit, write checkpoint t carrying the consumed cursor, and only then
// release the segments below the lowest cursor a restart could resume
// from. A failed flush skips the checkpoint. A run without a manager
// releases every consumed segment at drain. It runs on the consumer
// goroutine or after it has exited, so the processor is quiescent.
func (p *Pipeline) checkpoint(final bool) {
	seq := p.consumedSeq.Load()
	if p.mgr == nil {
		if final && p.sp != nil {
			p.sp.log.Release(seq)
		}
		return
	}
	t := p.ckpt.T()
	if t == 0 || !final && !p.mgr.Due(t) {
		return
	}
	if p.sp != nil {
		// A killed run's log is closed: it writes nothing more.
		if err := p.sp.log.Sync(); errors.Is(err, wal.ErrClosed) || !p.durable("spill sync", err) {
			return
		}
	}
	p.ckpt.SetCursor(seq)
	path, err := p.mgr.Write(t, p.ckpt)
	if p.durable("checkpoint", err) && p.sp != nil {
		p.sp.log.Release(p.floor(path, seq))
	}
}

// floor records that the checkpoint at path carries cursor seq and
// returns the lowest cursor among the checkpoints the manager keeps. One
// this run did not write counts as 0: its cursor is unknown here, and a
// restart may still fall back to it.
func (p *Pipeline) floor(path string, seq uint64) uint64 {
	p.cursors[path] = seq
	kept := make(map[string]uint64, len(p.cursors))
	floor := seq
	for _, ck := range p.mgr.Checkpoints() {
		c, ok := p.cursors[ck]
		floor = min(floor, c)
		if ok {
			kept[ck] = c
		}
	}
	p.cursors = kept
	return floor
}

// durable reports a failed durability step through OnError.
func (p *Pipeline) durable(step string, err error) bool {
	if err != nil && p.cfg.OnError != nil {
		p.cfg.OnError(fmt.Errorf("%w: %s: %v", ErrDurability, step, err))
	}
	return err == nil
}

// Kill is the crash simulation used by the durability tests: it stops
// the consumer and refiller immediately and closes the WAL WITHOUT
// flushing the group commit or writing a checkpoint — exactly the
// state a SIGKILL leaves behind. Production shutdown is Drain.
func (p *Pipeline) Kill() {
	started := p.cancel != nil
	if started {
		p.cancel()
	}
	p.q.kill()
	if p.sp != nil {
		p.sp.kill()
		if started {
			p.sp.wait()
		}
		p.sp.abort()
	}
	if started {
		<-p.done
	}
}

// Stats snapshots the overload counters.
func (p *Pipeline) Stats() trace.OverloadSnapshot { return p.ov.Snapshot() }

// loop is the consumer: pop, staleness check, solve with the
// propagated deadline, controller observation.
func (p *Pipeline) loop(ctx context.Context) {
	defer close(p.done)
	for {
		if ctx.Err() != nil {
			return
		}
		it, ok := p.q.pop()
		if !ok {
			return
		}
		p.consume(ctx, it)
		if ctx.Err() != nil {
			return
		}
	}
}

// consume handles one popped item end to end.
func (p *Pipeline) consume(ctx context.Context, it item) {
	lag := p.clock().Sub(it.admitted)
	if p.cfg.MaxLag > 0 && lag > p.cfg.MaxLag {
		// Stale before solving: shedding now is strictly better than
		// spending solver time on a window the feed has already
		// outrun.
		p.ov.ShedStale.Add(1)
		p.markConsumed(it)
		p.observe(lag)
		return
	}
	sctx := ctx
	if p.cfg.MaxLag > 0 && p.realTime {
		var cancel context.CancelFunc
		sctx, cancel = context.WithDeadline(ctx, it.admitted.Add(p.cfg.MaxLag))
		defer cancel()
	}
	res, err := p.proc.ProcessSliceContext(sctx, it.slice)
	switch {
	case err == nil:
		p.ov.Processed.Add(1)
		p.markConsumed(it)
		p.checkpoint(false)
		if p.cfg.OnResult != nil {
			p.cfg.OnResult(res)
		}
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The propagated lag deadline expired mid-solve: the slice is
		// stale, same accounting as shedding it before the solve.
		p.ov.ShedStale.Add(1)
		p.markConsumed(it)
		if p.cfg.OnError != nil {
			p.cfg.OnError(err)
		}
	case ctx.Err() != nil:
		// Emergency stop: the item was popped but not completed; count
		// it with the drain sheds so the accounting stays exact. The
		// consumed mark is NOT advanced — a spilled slice stopped
		// mid-solve stays above every checkpoint's cursor and replays
		// after restart.
		p.ov.ShedDrain.Add(1)
		return
	default:
		// Solver error (or a slice skipped by the resilience policy):
		// absorbed, counted, stream continues.
		p.ov.Failed.Add(1)
		p.markConsumed(it)
		if p.cfg.OnError != nil {
			p.cfg.OnError(err)
		}
	}
	p.observe(p.clock().Sub(it.admitted))
}

// markConsumed records that a slice's outcome is final. For spilled
// slices this advances the cursor the next checkpoint carries: an
// outcome an uncrashed run would reproduce (processed into state;
// failed or stale-shed and skipped) must not replay after a crash, or
// recovery diverges from the uncrashed run. Without a checkpoint
// manager no checkpoint releases WAL segments, so every consumed record
// does, and disk tracks the unconsumed backlog, not the run's history.
func (p *Pipeline) markConsumed(it item) {
	if it.walSeq <= p.consumedSeq.Load() {
		return
	}
	// Single consumer goroutine: plain store ordering is enough.
	p.consumedSeq.Store(it.walSeq)
	if p.mgr == nil {
		p.sp.log.Release(it.walSeq)
	}
}

// observe feeds the controller (when armed) one measurement.
func (p *Pipeline) observe(lag time.Duration) {
	if p.ctrl != nil {
		p.ctrl.Observe(p.q.depth(), p.cfg.QueueCap, lag, p.SpillPending())
	}
}

// Drain performs the graceful shutdown: admissions stop, the backlog
// is processed until done or the drain deadline (Config.DrainTimeout,
// further bounded by ctx), and anything still queued is shed and
// counted. It then makes the end state durable — the final checkpoint
// when the run has a manager, the WAL close — and returns the final
// counter snapshot. Drain must be called exactly once, after producers
// have stopped offering.
func (p *Pipeline) Drain(ctx context.Context) trace.OverloadSnapshot {
	p.q.close()
	if p.sp != nil {
		// No more spills are coming; the refiller flushes the durable
		// backlog into the queue and exits, which lets the consumer's
		// pop report exhaustion.
		p.sp.closeAdmissions()
	}
	timer := time.NewTimer(p.cfg.DrainTimeout)
	defer timer.Stop()
	graceful := false
	select {
	case <-p.done:
		graceful = true
	case <-timer.C:
	case <-ctx.Done():
	}
	if !graceful {
		// Deadline: stop the consumer and refiller, then account the
		// backlog. Direct-queued slices are shed; spilled slices are
		// returned to the durable backlog — they are on disk above every
		// checkpoint's cursor, so the next run replays them instead.
		if p.cancel != nil {
			p.cancel()
		}
		if p.sp != nil {
			// Wake a refiller blocked waiting for queue space, then
			// wait it out; its in-flight record stays durable on disk.
			p.q.kill()
			p.sp.kill()
			p.sp.wait()
		}
		<-p.done
		for {
			it, ok := p.q.tryPop()
			if !ok {
				break
			}
			if it.walSeq > 0 {
				p.sp.requeue()
			} else {
				p.ov.ShedDrain.Add(1)
			}
		}
	} else if p.sp != nil {
		p.sp.wait()
	}
	// Checkpoint the final state with its cursor so a restart does not
	// replay slices this run already folded in, then flush and close
	// the WAL.
	p.checkpoint(true)
	if p.sp != nil {
		p.durable("spill close", p.sp.close())
	}
	return p.ov.Snapshot()
}
