// Package cluster is the sharded multi-node serving layer: a
// stateless HTTP gateway (cmd/spstream-gateway) in front of N
// spstreamd shards, each a full single-node daemon owning a
// contiguous block of mode-0 rows.
//
// Writes: POST /v1/ingest is parsed at the gateway (same trust
// boundary as the single-node daemon), partitioned by the Router, and
// forwarded through one bounded FIFO + sender goroutine per shard
// with retry, capped exponential backoff with jitter, and a circuit
// breaker per upstream. A batch a shard has consumed is never resent
// (no double ingestion); a batch that cannot be delivered is
// accounted, never silently lost — the gateway's overload ledger
// keeps produced == forwarded + failed + shed + pending exact.
//
// Reads: /v1/factors, /v1/reconstruct and /v1/stats fan out to all
// shards and merge (row-block concatenation for the mode-0 factor,
// Gram-partial + Hadamard contraction for the model norm). When
// shards are down, reads degrade instead of failing: 200 with
// "partial": true and the exact missing row ranges.
package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spstream/internal/resilience"
	"spstream/internal/serve"
	"spstream/internal/serve/httpx"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// Config parameterizes a Gateway. Router and Shards are required and
// must agree on the shard count; everything else has serviceable
// defaults.
type Config struct {
	// Router is the row-block partition (also defines the tensor dims
	// the gateway validates ingest against).
	Router *Router
	// Shards are the shard base URLs, index = shard id.
	Shards []string
	// Version is the build stamp reported in /v1/stats.
	Version string

	// QueueEvents bounds each shard's forward queue, in events.
	// Default 65536.
	QueueEvents int
	// SendRetries caps delivery attempts per batch; 0 or negative
	// retries until shutdown (the chaos posture: a down shard's
	// backlog waits in the queue for its restart).
	SendRetries int
	// ReadRetries is how many extra attempts a fan-out read gets per
	// shard. Default 1.
	ReadRetries int
	// RequestTimeout bounds each upstream request. Default 5s.
	RequestTimeout time.Duration
	// ProbeInterval is the per-shard /readyz probe cadence feeding the
	// breakers. Default 1s.
	ProbeInterval time.Duration
	// Backoff shapes the retry ladder (send and read paths share it).
	Backoff resilience.BackoffConfig
	// Breaker parameterizes the per-shard circuit breakers.
	Breaker resilience.BreakerConfig
	// BodyLimit caps ingest request bodies. Default 8 MiB.
	BodyLimit int64
	// DrainTimeout bounds the shutdown flush of the forward queues.
	// Default 30s.
	DrainTimeout time.Duration

	// Logf receives operational messages. Default: discard.
	Logf func(format string, args ...any)
	// Sleep replaces the retry/probe waits (testing). It returns false
	// when the gateway was killed mid-wait. Default: real sleep,
	// aborted by shutdown.
	Sleep func(d time.Duration) bool
	// HTTP overrides the upstream client (testing).
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.QueueEvents <= 0 {
		c.QueueEvents = 65536
	}
	if c.ReadRetries < 0 {
		c.ReadRetries = 0
	} else if c.ReadRetries == 0 {
		c.ReadRetries = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.BodyLimit <= 0 {
		c.BodyLimit = 8 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	return c
}

// shard is the gateway's per-upstream state: client, breaker, forward
// queue, and the sender's in-flight gauge.
type shard struct {
	id       int
	lo, hi   int
	client   *ShardClient
	breaker  *resilience.Breaker
	queue    *forwardQueue
	inflight atomic.Int64 // events the sender holds right now
}

// Gateway is the stateless cluster front door. All durable state
// lives in the shards; the gateway holds only routing arithmetic,
// breakers, and the bounded forward backlog.
type Gateway struct {
	cfg     Config
	router  *Router
	shards  []*shard
	backoff *resilience.Backoff
	ov      trace.Overload
	mux     *http.ServeMux

	draining atomic.Bool
	killed   chan struct{}
	killOnce sync.Once
	sendWg   sync.WaitGroup // senders (graceful drain waits on these)
	probeWg  sync.WaitGroup
	started  atomic.Bool
}

// New builds a gateway. The shard list length must match the router's
// shard count — a silent mismatch would route rows to nobody.
func New(cfg Config) (*Gateway, error) {
	if cfg.Router == nil {
		return nil, fmt.Errorf("cluster: Config.Router is required")
	}
	if len(cfg.Shards) != cfg.Router.Shards() {
		return nil, fmt.Errorf("cluster: router expects %d shards, got %d URLs", cfg.Router.Shards(), len(cfg.Shards))
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		router:  cfg.Router,
		backoff: resilience.NewBackoff(cfg.Backoff),
		mux:     http.NewServeMux(),
		killed:  make(chan struct{}),
	}
	breakers := resilience.NewBreakers(len(cfg.Shards), cfg.Breaker)
	for i, base := range cfg.Shards {
		lo, hi := g.router.Block(i)
		g.shards = append(g.shards, &shard{
			id:      i,
			lo:      lo,
			hi:      hi,
			client:  &ShardClient{Base: strings.TrimRight(base, "/"), HTTP: cfg.HTTP},
			breaker: breakers[i],
			queue:   newForwardQueue(cfg.QueueEvents),
		})
	}
	g.routes()
	return g, nil
}

func (g *Gateway) routes() {
	g.mux.HandleFunc("POST /v1/ingest", g.handleIngest)
	g.mux.HandleFunc("GET /v1/factors", g.handleFactors)
	g.mux.HandleFunc("GET /v1/reconstruct", g.handleReconstruct)
	g.mux.HandleFunc("GET /v1/stats", g.handleStats)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
}

// Handler returns the gateway's HTTP surface with panic containment.
func (g *Gateway) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				g.cfg.Logf("panic in %s %s: %v", r.Method, r.URL.Path, p)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		g.mux.ServeHTTP(w, r)
	})
}

// Overload snapshots the gateway's forward ledger. In gateway terms:
// Produced = events accepted at the front door, Processed = events a
// shard confirmed, Failed = events a shard rejected or whose batch
// exhausted its retries, ShedNewest = full-queue sheds at admission,
// ShedDrain = backlog abandoned at the drain deadline.
func (g *Gateway) Overload() trace.OverloadSnapshot { return g.ov.Snapshot() }

// Pending returns the events accepted but not yet resolved: queued
// plus in flight. The ledger invariant is
//
//	produced == processed + failed + shed + pending
//
// at every instant (Pending is read after the counters it balances,
// so transient over-counts are possible mid-flight; it is exact when
// ingest is quiescent).
func (g *Gateway) Pending() int64 {
	var n int64
	for _, s := range g.shards {
		_, ev := s.queue.depth()
		n += int64(ev) + s.inflight.Load()
	}
	return n
}

// Start launches the senders and probe loops without serving HTTP
// (tests drive the Handler directly).
func (g *Gateway) Start() {
	if !g.started.CompareAndSwap(false, true) {
		return
	}
	for _, s := range g.shards {
		g.sendWg.Add(1)
		go g.sender(s)
		g.probeWg.Add(1)
		go g.prober(s)
	}
}

// Shutdown drains the forward queues (bounded by DrainTimeout), then
// kills the remaining waits. Safe to call once after Start.
func (g *Gateway) Shutdown() {
	g.draining.Store(true)
	for _, s := range g.shards {
		s.queue.close()
	}
	done := make(chan struct{})
	go func() {
		g.sendWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(g.cfg.DrainTimeout):
		g.cfg.Logf("drain timeout after %v; shedding the remaining backlog", g.cfg.DrainTimeout)
	}
	g.kill()
	g.sendWg.Wait()
	g.probeWg.Wait()
}

// Run serves HTTP on ln until ctx is cancelled, then drains and
// returns. The standard daemon entrypoint.
func (g *Gateway) Run(ctx context.Context, ln net.Listener) error {
	g.Start()
	hs := &http.Server{Handler: g.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	g.cfg.Logf("draining: flushing forward queues (timeout %v)", g.cfg.DrainTimeout)
	g.Shutdown()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	ov := g.ov.Snapshot()
	g.cfg.Logf("drained: %s", ov)
	return nil
}

func (g *Gateway) kill() {
	g.killOnce.Do(func() {
		close(g.killed)
		for _, s := range g.shards {
			s.queue.kill()
		}
	})
}

func (g *Gateway) isKilled() bool {
	select {
	case <-g.killed:
		return true
	default:
		return false
	}
}

// sleep waits d or until the gateway is killed (false).
func (g *Gateway) sleep(d time.Duration) bool {
	if g.cfg.Sleep != nil {
		return g.cfg.Sleep(d)
	}
	if d <= 0 {
		return !g.isKilled()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-g.killed:
		return false
	case <-t.C:
		return true
	}
}

// ---------------------------------------------------------------------
// Write path: per-shard sender with retry, backoff, and the breaker.

// sender is shard s's single delivery goroutine: FIFO order within a
// shard is absolute, so retries can never reorder its substream.
func (g *Gateway) sender(s *shard) {
	defer g.sendWg.Done()
	for {
		b, ok := s.queue.pop()
		if !ok {
			return
		}
		s.inflight.Store(int64(len(b.events)))
		g.deliver(s, b)
		s.inflight.Store(0)
	}
}

// deliver pushes one batch at shard s until it is consumed or
// declared dead, walking the backoff ladder between attempts. Every
// event ends in exactly one ledger bucket.
func (g *Gateway) deliver(s *shard, b batch) {
	n := int64(len(b.events))
	body := renderBody(b.events)
	attempts := 0 // actual POSTs, for the SendRetries cap
	step := 0     // backoff rung, also advanced by breaker waits
	for {
		if g.isKilled() {
			g.ov.ShedDrain.Add(n)
			return
		}
		if !s.breaker.Allow() {
			if !g.sleep(g.backoff.Delay(step, s.breaker.RetryAfter())) {
				g.ov.ShedDrain.Add(n)
				return
			}
			step++
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.RequestTimeout)
		out, err := s.client.PostIngest(ctx, body, b.flush)
		cancel()
		attempts++

		var retryAfter time.Duration
		switch {
		case err != nil:
			// No HTTP response: the batch state at the shard is unknown.
			// Redelivering risks duplication, dropping risks loss; the
			// gateway chooses at-least-once (the shard may have died
			// before ingesting) and documents the ambiguity.
			s.breaker.OnFailure()
			g.cfg.Logf("shard %d: ingest attempt %d failed: %v", s.id, attempts, err)
		case out.Consumed:
			// The shard absorbed the batch (even on 429/503 its
			// accumulator has the events — only whole windows past
			// admission are governed by its own shed policy). Terminal:
			// resending would double-ingest.
			s.breaker.OnSuccess()
			g.ov.Processed.Add(int64(out.Accepted))
			rest := n - int64(out.Accepted)
			if rest > 0 {
				// Shard-side rejections should be impossible — the
				// gateway validated against the same dims — so a nonzero
				// residue is a topology mismatch worth shouting about.
				g.ov.Failed.Add(rest)
				g.cfg.Logf("shard %d: %d/%d events rejected upstream (first: line %d: %s)",
					s.id, rest, n, out.FirstRejectedLine, out.FirstRejectedError)
			}
			if out.Shed > 0 {
				g.cfg.Logf("shard %d: shed %d window(s) at admission (status %d)", s.id, out.Shed, out.Status)
			}
			return
		case out.Status >= 400 && out.Status < 500 && out.Status != http.StatusTooManyRequests:
			// 400/413/…: the shard refused the body outright. The
			// gateway produced it from validated events, so this is a
			// configuration bug (dims mismatch, body limit below the
			// gateway's); retrying the same bytes cannot succeed.
			s.breaker.OnSuccess() // the shard is alive and answering
			g.ov.Failed.Add(n)
			g.cfg.Logf("shard %d: batch of %d events refused with %d: %s", s.id, n, out.Status, out.ErrorMsg)
			return
		default:
			// 5xx or a pre-parse 503 (draining/unready): transient.
			s.breaker.OnFailure()
			retryAfter = out.RetryAfter
			g.cfg.Logf("shard %d: ingest attempt %d got %d: %s", s.id, attempts, out.Status, out.ErrorMsg)
		}

		if g.cfg.SendRetries > 0 && attempts >= g.cfg.SendRetries {
			g.ov.Failed.Add(n)
			g.cfg.Logf("shard %d: dropping batch of %d events after %d attempts", s.id, n, attempts)
			return
		}
		if !g.sleep(g.backoff.Delay(step, retryAfter)) {
			g.ov.ShedDrain.Add(n)
			return
		}
		step++
	}
}

// prober feeds shard s's breaker from /readyz so recovery is detected
// without waiting for traffic: a restarted shard's first good probe
// closes the breaker and the sender resumes the backlog.
func (g *Gateway) prober(s *shard) {
	defer g.probeWg.Done()
	for {
		if !g.sleep(g.cfg.ProbeInterval) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.RequestTimeout)
		err := s.client.Ready(ctx)
		cancel()
		if err == nil {
			s.breaker.OnSuccess()
		} else {
			s.breaker.OnFailure()
		}
	}
}

// ---------------------------------------------------------------------
// Read path: fan-out with bounded retries, merge, degrade.

// fetchJSON reads path from shard s with the shared retry ladder. A
// breaker-refused attempt fails fast (degraded read) rather than
// waiting out a cooldown.
func (g *Gateway) fetchJSON(ctx context.Context, s *shard, path string, out any) error {
	var last error
	for attempt := 0; ; attempt++ {
		if !s.breaker.Allow() {
			last = fmt.Errorf("shard %d unavailable (breaker %s)", s.id, s.breaker.State())
		} else {
			rctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
			err := s.client.GetJSON(rctx, path, out)
			cancel()
			if err == nil {
				s.breaker.OnSuccess()
				return nil
			}
			s.breaker.OnFailure()
			last = err
		}
		if attempt >= g.cfg.ReadRetries || ctx.Err() != nil {
			return last
		}
		var retryAfter time.Duration
		var se *StatusError
		if errors.As(last, &se) {
			retryAfter = se.RetryAfter
		}
		if !g.sleep(g.backoff.Delay(attempt, retryAfter)) {
			return last
		}
	}
}

// shardFactorsDoc is the slice of a shard's /v1/factors response the
// merge needs.
type shardFactorsDoc struct {
	T       int           `json:"t"`
	Dims    []int         `json:"dims"`
	Rank    int           `json:"rank"`
	Fit     *float64      `json:"fit"`
	S       []float64     `json:"s"`
	Factors [][][]float64 `json:"factors"`
}

// fetchAllFactors fans /v1/factors out to every shard. docs[i] is nil
// for unreachable shards; errs[i] says why.
func (g *Gateway) fetchAllFactors(ctx context.Context) (docs []*shardFactorsDoc, errs []error) {
	docs = make([]*shardFactorsDoc, len(g.shards))
	errs = make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, s := range g.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			var doc shardFactorsDoc
			if err := g.fetchJSON(ctx, s, "/v1/factors", &doc); err != nil {
				errs[i] = err
				return
			}
			if len(doc.Dims) != len(g.router.Dims()) || doc.Dims[0] != g.router.Dims()[0] {
				errs[i] = fmt.Errorf("shard %d reports dims %v, gateway routes %v", i, doc.Dims, g.router.Dims())
				return
			}
			docs[i] = &doc
		}(i, s)
	}
	wg.Wait()
	return docs, errs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// gatewayIngestResponse is the gateway's POST /v1/ingest envelope.
// Shapes match the single-node daemon where the semantics do;
// forwarding adds enqueued/shed (delivery is asynchronous, so
// "accepted" means accepted for forwarding, not yet solved).
type gatewayIngestResponse struct {
	Accepted           int    `json:"accepted"`
	Rejected           int    `json:"rejected"`
	Enqueued           int    `json:"enqueued"`
	ShedEvents         int    `json:"shed_events"`
	FirstRejectedLine  int    `json:"first_rejected_line,omitempty"`
	FirstRejectedError string `json:"first_rejected_error,omitempty"`
}

// handleIngest parses the same wire format as spstreamd, partitions by
// mode-0 row, and enqueues each shard's share. Full queues shed with
// 429 + Retry-After and exact counts — never block, never lie.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() || g.isKilled() {
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(time.Second))
		jsonError(w, http.StatusServiceUnavailable, "gateway is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.BodyLimit)
	flush := r.URL.Query().Get("flush") != ""
	dims := g.router.Dims()

	// Parse + bucket in one pass; ParseEvent bounds-checks against the
	// router dims, so the row→shard lookup cannot fail afterwards.
	var resp gatewayIngestResponse
	buckets := make([][]sptensor.Event, len(g.shards))
	lineNo := 0
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := serve.ParseEvent(line, dims)
		if err != nil {
			resp.Rejected++
			if resp.FirstRejectedLine == 0 {
				resp.FirstRejectedLine = lineNo
				resp.FirstRejectedError = err.Error()
			}
			continue
		}
		resp.Accepted++
		sid := g.router.ShardForRow(int(ev.Coord[0]))
		buckets[sid] = append(buckets[sid], ev)
	}
	if scanErr := sc.Err(); scanErr != nil {
		var tooBig *http.MaxBytesError
		if errors.As(scanErr, &tooBig) {
			jsonError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", g.cfg.BodyLimit)
			return
		}
		jsonError(w, http.StatusBadRequest, "reading body: %v", scanErr)
		return
	}
	if resp.Accepted == 0 && resp.Rejected > 0 {
		jsonError(w, http.StatusBadRequest, "no valid events in body (%d rejected; line %d: %s)",
			resp.Rejected, resp.FirstRejectedLine, resp.FirstRejectedError)
		return
	}

	g.ov.Produced.Add(int64(resp.Accepted))
	for sid, s := range g.shards {
		evsHere := buckets[sid]
		if len(evsHere) == 0 && !flush {
			continue
		}
		if s.queue.push(batch{events: evsHere, flush: flush}) {
			resp.Enqueued += len(evsHere)
		} else {
			resp.ShedEvents += len(evsHere)
			g.ov.ShedNewest.Add(int64(len(evsHere)))
		}
	}
	g.ov.RaiseHighWater(g.Pending())

	if resp.ShedEvents > 0 {
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(time.Second))
		writeJSON(w, http.StatusTooManyRequests, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// gatewayFactorsResponse is the merged /v1/factors document. Mode-0 is
// the row-block concatenation; modes ≥ 1 live per shard (the cluster
// model is additive over disjoint row blocks, so there is no single
// global factor for them — see DESIGN §14).
type gatewayFactorsResponse struct {
	T          int                `json:"t"`
	Dims       []int              `json:"dims"`
	Rank       int                `json:"rank"`
	Partial    bool               `json:"partial"`
	Missing    []RowRange         `json:"missing,omitempty"`
	Mode0      [][]float64        `json:"mode0"`
	ModelNorm2 float64            `json:"model_norm2"`
	Shards     []gatewayShardView `json:"shards"`
}

// gatewayShardView is one shard's slot in a merged read.
type gatewayShardView struct {
	ID    int      `json:"id"`
	RowLo int      `json:"row_lo"`
	RowHi int      `json:"row_hi"`
	OK    bool     `json:"ok"`
	T     int      `json:"t,omitempty"`
	Fit   *float64 `json:"fit,omitempty"`
	Norm2 float64  `json:"norm2,omitempty"`
	Error string   `json:"error,omitempty"`
}

// mergeFactors builds the merged factors document from a fan-out
// result. Shared by /v1/factors and coordinate-less /v1/reconstruct.
func (g *Gateway) mergeFactors(docs []*shardFactorsDoc, errs []error) gatewayFactorsResponse {
	resp := gatewayFactorsResponse{Dims: g.router.Dims(), T: -1}
	rank := 0
	for _, doc := range docs {
		if doc != nil && doc.Rank > rank {
			rank = doc.Rank
		}
	}
	resp.Rank = rank
	perShard := make([][][]float64, len(docs))
	for i, doc := range docs {
		view := gatewayShardView{ID: i, RowLo: g.shards[i].lo, RowHi: g.shards[i].hi}
		if doc == nil {
			view.Error = errMsg(errs[i])
			resp.Partial = true
			resp.Shards = append(resp.Shards, view)
			continue
		}
		view.OK = true
		view.T = doc.T
		view.Fit = doc.Fit
		view.Norm2 = BlockNorm2(doc.Factors, doc.S, g.shards[i].lo, g.shards[i].hi)
		resp.ModelNorm2 += view.Norm2
		if resp.T == -1 || doc.T < resp.T {
			resp.T = doc.T // the conservative cluster position
		}
		if len(doc.Factors) > 0 {
			perShard[i] = doc.Factors[0]
		}
		resp.Shards = append(resp.Shards, view)
	}
	if resp.T == -1 {
		resp.T = 0
	}
	mode0, missing := MergeMode0(g.router, perShard, rank)
	resp.Mode0 = mode0
	resp.Missing = missing
	if len(missing) > 0 {
		resp.Partial = true
	}
	return resp
}

func errMsg(err error) string {
	if err == nil {
		return "unreachable"
	}
	return err.Error()
}

// handleFactors is the merged read: 200 even when shards are down,
// with partial=true and the missing row ranges (graceful degradation
// beats a 502 that hides the nine healthy shards behind the one dead
// one).
func (g *Gateway) handleFactors(w http.ResponseWriter, r *http.Request) {
	docs, errs := g.fetchAllFactors(r.Context())
	writeJSON(w, http.StatusOK, g.mergeFactors(docs, errs))
}

// handleReconstruct routes a point read to the one shard owning the
// row (exact — the additive model has a single owner per mode-0 row).
// Without ?coord it reports the merged model energy ‖X̂‖² = Σ_s ‖X̂_s‖²
// via the Gram/Hadamard contraction.
func (g *Gateway) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	coordStr := r.URL.Query().Get("coord")
	if coordStr == "" {
		docs, errs := g.fetchAllFactors(r.Context())
		m := g.mergeFactors(docs, errs)
		writeJSON(w, http.StatusOK, map[string]any{
			"t":           m.T,
			"model_norm2": m.ModelNorm2,
			"partial":     m.Partial,
			"missing":     m.Missing,
			"shards":      m.Shards,
		})
		return
	}
	dims := g.router.Dims()
	parts := strings.Split(coordStr, ",")
	if len(parts) != len(dims) {
		jsonError(w, http.StatusBadRequest, "want %d coordinates, got %d", len(dims), len(parts))
		return
	}
	coord := make([]int, len(parts))
	for m, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 || v > dims[m] {
			jsonError(w, http.StatusBadRequest, "bad coordinate %q for mode %d (dim %d)", p, m, dims[m])
			return
		}
		coord[m] = v
	}
	s := g.shards[g.router.ShardForRow(coord[0]-1)]
	var doc map[string]any
	if err := g.fetchJSON(r.Context(), s, "/v1/reconstruct?coord="+coordStr, &doc); err != nil {
		// A point read has exactly one authority; with it down there is
		// no partial answer to give. 503 + Retry-After is the honest
		// response (the degraded-read contract covers fan-out reads).
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(s.breaker.RetryAfter()))
		jsonError(w, http.StatusServiceUnavailable, "shard %d owns row %d and is unavailable: %v", s.id, coord[0], err)
		return
	}
	doc["shard"] = s.id
	writeJSON(w, http.StatusOK, doc)
}

// shardStatsDoc is the slice of a shard's /v1/stats the gateway needs.
type shardStatsDoc struct {
	Version string   `json:"version"`
	T       int      `json:"t"`
	Fit     *float64 `json:"fit"`
	Shard   *struct {
		ID    int `json:"id"`
		Count int `json:"count"`
		RowLo int `json:"row_lo"`
		RowHi int `json:"row_hi"`
	} `json:"shard"`
	Overload map[string]int64 `json:"overload"`
}

// gatewayStatsResponse is GET /v1/stats at the gateway: the forward
// ledger plus one row per shard with breaker and backlog state.
type gatewayStatsResponse struct {
	Version  string             `json:"version"`
	Draining bool               `json:"draining"`
	Partial  bool               `json:"partial"`
	Shards   []gatewayShardStat `json:"shards"`
	Overload map[string]int64   `json:"overload"`
}

type gatewayShardStat struct {
	ID           int    `json:"id"`
	URL          string `json:"url"`
	RowLo        int    `json:"row_lo"`
	RowHi        int    `json:"row_hi"`
	Breaker      string `json:"breaker"`
	QueueBatches int    `json:"queue_batches"`
	QueueEvents  int    `json:"queue_events"`
	Inflight     int64  `json:"inflight"`
	OK           bool   `json:"ok"`
	T            int    `json:"t,omitempty"`
	Version      string `json:"version,omitempty"`
	Mismatch     string `json:"mismatch,omitempty"`
	Error        string `json:"error,omitempty"`
}

// handleStats fans /v1/stats out and audits each shard's self-reported
// row block against the gateway's router: a daemon started with the
// wrong -shard-id or -shard-count answers confidently and corrupts the
// merge, so topology disagreement is surfaced here, loudly.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := gatewayStatsResponse{
		Version:  g.cfg.Version,
		Draining: g.draining.Load(),
		Shards:   make([]gatewayShardStat, len(g.shards)),
	}
	var wg sync.WaitGroup
	for i, s := range g.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			qb, qe := s.queue.depth()
			st := gatewayShardStat{
				ID: i, URL: s.client.Base, RowLo: s.lo, RowHi: s.hi,
				Breaker:      s.breaker.State().String(),
				QueueBatches: qb, QueueEvents: qe,
				Inflight: s.inflight.Load(),
			}
			var doc shardStatsDoc
			if err := g.fetchJSON(r.Context(), s, "/v1/stats", &doc); err != nil {
				st.Error = err.Error()
			} else {
				st.OK = true
				st.T = doc.T
				st.Version = doc.Version
				if sh := doc.Shard; sh != nil && (sh.ID != i || sh.Count != len(g.shards) || sh.RowLo != s.lo || sh.RowHi != s.hi) {
					st.Mismatch = fmt.Sprintf("shard reports id=%d/%d rows [%d,%d), gateway expects id=%d/%d rows [%d,%d)",
						sh.ID, sh.Count, sh.RowLo, sh.RowHi, i, len(g.shards), s.lo, s.hi)
					g.cfg.Logf("topology mismatch at %s: %s", s.client.Base, st.Mismatch)
				}
			}
			resp.Shards[i] = st
		}(i, s)
	}
	wg.Wait()
	for _, st := range resp.Shards {
		if !st.OK {
			resp.Partial = true
		}
	}
	ov := g.ov.Snapshot()
	pending := g.Pending()
	resp.Overload = map[string]int64{
		"produced":    ov.Produced,
		"forwarded":   ov.Processed,
		"failed":      ov.Failed,
		"shed_newest": ov.ShedNewest,
		"shed_drain":  ov.ShedDrain,
		"shed":        ov.Shed(),
		"pending":     pending,
		"queue_high":  ov.QueueHighWater,
	}
	writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: the gateway is ready while it can do useful work —
// not draining and at least one shard admissible. With every breaker
// open, reads would merge nothing and ingest would only queue, so the
// honest answer is 503 with the soonest shard's Retry-After.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() || g.isKilled() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	open := 0
	soonest := time.Duration(math.MaxInt64)
	for _, s := range g.shards {
		if s.breaker.State() == resilience.BreakerOpen {
			open++
			if ra := s.breaker.RetryAfter(); ra < soonest {
				soonest = ra
			}
		}
	}
	if open == len(g.shards) {
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(soonest))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "all shards unavailable", "shards_open": open,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "shards_total": len(g.shards), "shards_open": open,
	})
}
