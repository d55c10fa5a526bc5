package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spstream/internal/core"
	"spstream/internal/ingest"
	"spstream/internal/resilience"
	"spstream/internal/serve/httpx"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// Config parameterizes a Server. Dims and Options are required; every
// zero field gets a production-safe default.
type Config struct {
	// Dims are the slice mode lengths the daemon decomposes.
	Dims []int
	// Options configures the decomposer. Options.Resilience should be
	// set for a daemon that must survive bad slices; WithServerDefaults
	// installs a SkipSlice policy when it is nil.
	Options core.Options

	// WindowEvents is the number of ingested events accumulated into
	// one slice. Default 1000.
	WindowEvents int

	// QueueCap, Policy, MaxLag and DrainTimeout configure the bounded
	// ingest pipeline. The default policy is DropNewest: the serving
	// layer translates the shed into a 429 so the producer — not the
	// queue — holds the backlog.
	QueueCap     int
	Policy       ingest.ShedPolicy
	MaxLag       time.Duration
	DrainTimeout time.Duration

	// SpillDir, when set, switches the shed policy to Spill: queue
	// overflow is appended to a crash-safe WAL under this directory and
	// replayed in admission order as capacity frees, instead of being
	// shed with a 429. Keep it on the same filesystem as CheckpointDir.
	// SpillMaxBytes caps the on-disk backlog (0 = unbounded; past the
	// cap overflow is shed again). SpillFsyncInterval is the WAL
	// group-commit window — how much freshly spilled data a hard crash
	// may lose; zero fsyncs every spilled window.
	SpillDir           string
	SpillMaxBytes      int64
	SpillFsyncInterval time.Duration

	// CheckpointDir, when set, arms crash-safe checkpointing: restore
	// the newest checkpoint at startup, write every CheckpointEvery
	// committed slices (default 10, keeping CheckpointKeep files,
	// default 3), and write a final checkpoint during graceful
	// shutdown.
	CheckpointDir   string
	CheckpointEvery int
	CheckpointKeep  int

	// BreakerFailures consecutive solver failures open the circuit
	// breaker (default 3); BreakerCooldown is the open→half-open delay
	// (default 5s).
	BreakerFailures int
	BreakerCooldown time.Duration

	// BodyLimit caps request body bytes (default 8 MiB);
	// RequestTimeout bounds every handler (default 30s).
	BodyLimit      int64
	RequestTimeout time.Duration

	// Shard identifies this daemon's slot in a row-sharded
	// spstream-cluster deployment (nil outside a cluster): the gateway
	// routes every event whose mode-0 coordinate falls in
	// [RowLo, RowHi) here. Purely informational to the daemon itself —
	// it is surfaced in /v1/stats so the gateway and operators can
	// audit that the topology and the shard's view of it agree.
	Shard *ShardInfo

	// Version is reported in /v1/stats (build-stamped by cmd/spstreamd).
	Version string

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// ShardInfo is one daemon's slot in a row-sharded cluster: shard ID of
// Count owns the contiguous mode-0 row block [RowLo, RowHi), 0-based
// and half-open.
type ShardInfo struct {
	ID    int
	Count int
	RowLo int
	RowHi int
}

// WithDefaults fills zero fields: the production-safe defaults a daemon
// runs with, and the flag defaults spstreamd starts from.
func (c Config) WithDefaults() Config {
	if c.WindowEvents <= 0 {
		c.WindowEvents = 1000
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10
	}
	if c.CheckpointKeep <= 0 {
		c.CheckpointKeep = 3
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BodyLimit <= 0 {
		c.BodyLimit = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Options.Resilience == nil {
		// A serving daemon must outlive bad slices: retry once from the
		// snapshot, then drop the slice and keep the stream alive.
		c.Options.Resilience = &resilience.Config{Policy: resilience.SkipSlice}
	}
	return c
}

// statsView is the consumer-published copy of the state that is unsafe
// to read concurrently from handlers (decomposer counters). It is
// republished after every slice outcome.
type statsView struct {
	T          int
	Fit        float64
	Resilience resilience.Stats
}

// Server is the daemon: decomposer + ingest pipeline + breaker + HTTP
// API. Create with New, serve with Run.
type Server struct {
	cfg     Config
	dec     *core.Decomposer
	pipe    *ingest.Pipeline
	breaker *resilience.Breaker

	// snap is the published model; handlers pin it (acquire). pub holds
	// the last two snapshots published, for publish to reuse.
	snap atomic.Pointer[FactorSnapshot]
	pub  [2]*FactorSnapshot
	// stats is the published copy of the consumer-side counters.
	stats atomic.Pointer[statsView]

	// accMu serializes the window accumulator and admission (POST
	// handlers are concurrent; the accumulator is not).
	accMu    sync.Mutex
	acc      *sptensor.WindowAccumulator
	rejected atomic.Int64

	draining atomic.Bool
	mux      *http.ServeMux
}

// NewDecomposer assembles the decomposer every front end runs: the
// checkpoint manager when cfg.CheckpointDir is set, and a decomposer
// carrying it, restored from the newest valid checkpoint there.
func NewDecomposer(cfg Config) (*core.Decomposer, error) {
	cfg = cfg.WithDefaults()
	if cfg.CheckpointDir != "" {
		mgr, err := resilience.NewManager(cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointKeep)
		if err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
		rc := *cfg.Options.Resilience // the caller's struct stays as it was
		rc.Checkpoint = mgr
		cfg.Options.Resilience = &rc
	}
	dec, err := core.NewDecomposer(cfg.Dims, cfg.Options)
	if err != nil {
		return nil, err
	}
	if mgr := dec.Checkpoints(); mgr != nil {
		path, err := mgr.RestoreLatest(dec.RestoreState)
		switch {
		case err == nil:
			cfg.Logf("restored checkpoint %s (t=%d)", path, dec.T())
		case errors.Is(err, resilience.ErrNoCheckpoint):
			// Fresh start.
		default:
			return nil, fmt.Errorf("serve: restore: %w", err)
		}
	}
	return dec, nil
}

// NewPipeline assembles the durable run a live front end sits on —
// spstreamd through New, watch and a piped cpstream directly: the
// decomposer of NewDecomposer and the ingest pipeline over it, with the
// spill WAL when cfg.SpillDir is set. From here on the pipeline owns the
// run's durability: replay after the restored checkpoint's WAL cursor, a
// checkpoint carrying the consumed cursor when one is due, the final one
// at Drain. own carries what is the caller's — Gate, Degrade, OnResult,
// OnError — and cfg its queue, policy, lag, drain and spill settings
// (Ingest).
func NewPipeline(cfg Config, own ingest.Config) (*core.Decomposer, *ingest.Pipeline, error) {
	cfg = cfg.WithDefaults()
	dec, err := NewDecomposer(cfg)
	if err != nil {
		return nil, nil, err
	}
	pipe, err := ingest.New(dec, cfg.Ingest(own))
	if err != nil {
		return nil, nil, err
	}
	if n := pipe.Stats().SpillRecovered; n > 0 {
		cfg.Logf("spill: recovered %d durable backlog slices (replay bound to t=%d)", n, dec.T())
	}
	return dec, pipe, nil
}

// Ingest returns own with c's pipeline settings: the queue, policy, lag,
// drain and spill settings the shared flags bind.
func (c Config) Ingest(own ingest.Config) ingest.Config {
	own.QueueCap, own.Policy, own.MaxLag, own.DrainTimeout = c.QueueCap, c.Policy, c.MaxLag, c.DrainTimeout
	own.Spill = &ingest.SpillConfig{Dir: c.SpillDir, MaxBytes: c.SpillMaxBytes, FsyncInterval: c.SpillFsyncInterval}
	return own
}

// New builds the server: the durable run (NewPipeline), breaker, and
// routes. The pipeline is not started until Run.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	if cfg.Policy == ingest.Block {
		// Blocking admission would turn queue pressure into hung HTTP
		// requests; shedding + 429 is the serving-layer contract.
		cfg.Policy = ingest.DropNewest
	}
	s := &Server{cfg: cfg}
	s.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: cfg.BreakerFailures,
		Cooldown:         cfg.BreakerCooldown,
	})
	s.acc = sptensor.NewWindowAccumulator(cfg.Dims, cfg.WindowEvents)

	var err error
	s.dec, s.pipe, err = NewPipeline(cfg, ingest.Config{
		Gate:     s.breaker.Allow,
		OnResult: s.onResult,
		OnError:  s.onError,
	})
	if err != nil {
		return nil, err
	}
	// Snapshot publication rides the commit hook: it fires only after a
	// slice commits, on the consumer goroutine, with the decomposer
	// quiescent — the only moment a publication is both safe and
	// guaranteed never to be retracted by a later rollback.
	s.dec.SetCommitHook(func(res core.SliceResult) { s.publish(res.Fit) })

	// The pre-stream snapshot: reads before the first committed slice
	// see the (restored or initial) state, never a 404 race.
	s.publish(math.NaN())
	s.publishStats(math.NaN())

	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// onResult runs on the pipeline's consumer goroutine after every
// committed slice (and after the pipeline wrote the checkpoint, when
// one was due): breaker success, stats.
func (s *Server) onResult(res core.SliceResult) {
	s.breaker.OnSuccess()
	s.publishStats(res.Fit)
}

// onError runs on the consumer goroutine for absorbed per-slice
// errors. Staleness (the max-lag deadline) is overload, not solver
// sickness — it must not open the breaker, or a traffic spike would be
// misdiagnosed as a broken solver and turn 429s into 503s. Neither is a
// failed WAL flush or checkpoint write: the slice itself committed.
func (s *Server) onError(err error) {
	if errors.Is(err, ingest.ErrDurability) {
		s.cfg.Logf("%v", err)
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		s.breaker.OnFailure()
		if st := s.breaker.Snapshot(); st.State == resilience.BreakerOpen {
			s.cfg.Logf("circuit breaker open after %d consecutive failures: %v", st.ConsecutiveFailures, err)
		}
	}
	s.publishStats(math.NaN())
}

// publishStats republishes the consumer-side counters (called only
// from the consumer goroutine or while the pipeline is quiescent).
func (s *Server) publishStats(fit float64) {
	s.stats.Store(&statsView{
		T:          s.dec.T(),
		Fit:        fit,
		Resilience: s.dec.ResilienceStats(),
	})
}

// publish makes the decomposer's committed version the published
// snapshot, pinned, then drops the publication pin of the snapshot it
// replaces. It runs where the decomposer is quiescent: in New and the
// commit hook. A slice commits a version nothing pinned when it began
// (core.Version), usually the one published two commits ago, and that
// snapshot is refilled for it instead of allocating: no reader holds
// it, and one that loaded it earlier fails acquire's recheck.
func (s *Server) publish(fit float64) {
	v := s.dec.Committed()
	snap := s.pub[0]
	if snap == nil || snap.ver != v {
		snap = newSnapshot(s.dec)
	}
	snap.fill(s.dec, fit)
	v.Pin()
	old := s.snap.Swap(snap)
	s.pub[0], s.pub[1] = s.pub[1], snap
	if old != nil {
		old.Release()
	}
}

// acquire pins the published snapshot: load, pin, recheck. A snapshot
// still published after the pin was taken stays unwritten until its
// Release — the decomposer reuses only unpinned versions. One replaced in
// between may already be rewritten; its pin is dropped and the load
// retried.
func (s *Server) acquire() *FactorSnapshot {
	for {
		snap := s.snap.Load()
		snap.ver.Pin()
		if s.snap.Load() == snap {
			return snap
		}
		snap.ver.Release()
	}
}

// Snapshot returns the current published model (never nil after New),
// pinned: Release it when done.
func (s *Server) Snapshot() *FactorSnapshot { return s.acquire() }

// Breaker exposes the circuit breaker (tests, stats).
func (s *Server) Breaker() *resilience.Breaker { return s.breaker }

// Overload snapshots the pipeline's overload counters.
func (s *Server) Overload() trace.OverloadSnapshot { return s.pipe.Stats() }

// Handler returns the fully wrapped HTTP handler: panic containment
// innermost, then the request deadline. The timeout wrapper replies
// 503 to requests that exceed RequestTimeout, so a wedged handler
// cannot accumulate goroutines without bound.
func (s *Server) Handler() http.Handler {
	var h http.Handler = s.mux
	h = s.recoverMiddleware(h)
	return http.TimeoutHandler(h, s.cfg.RequestTimeout, "request timed out\n")
}

// Run serves HTTP on ln until ctx is cancelled or serving fails, then
// performs the graceful shutdown (drain) and finishes in-flight reads.
// It returns the fatal serve error, or nil after a clean drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	s.pipe.Start(context.Background())
	return httpx.Run(ctx, ln, s.Handler(), s.cfg.RequestTimeout, s.drain)
}

// drain stops admissions, flushes the partial window and drains the
// backlog (bounded by DrainTimeout; the pipeline writes the final
// checkpoint, carrying the WAL cursor).
func (s *Server) drain() {
	s.cfg.Logf("shutdown: draining")
	s.draining.Store(true) // readyz goes 503, ingest refuses

	// Flush the partial window into the queue before draining, so a
	// final sub-window of events is solved, not lost.
	s.accMu.Lock()
	if slice := s.acc.Flush(); slice != nil {
		_ = s.pipe.Offer(slice)
	}
	s.accMu.Unlock()

	snap := s.pipe.Drain(context.Background())
	s.publishStats(math.NaN()) // the pipeline is quiescent now
	if mgr := s.dec.Checkpoints(); mgr != nil {
		if cks := mgr.Checkpoints(); len(cks) > 0 {
			s.cfg.Logf("newest checkpoint: %s", cks[0])
		}
	}
	s.cfg.Logf("shutdown: complete (t=%d, %s)", s.dec.T(), snap.String())
}

// SignalContext returns a context that the first SIGINT or SIGTERM
// cancels — the graceful drain. Default handling comes back as soon as
// it fires, so a second signal force-quits a wedged drain.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}
