package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spstream/internal/resilience"
)

// ingestReply scripts one fake-shard response to POST /v1/ingest.
type ingestReply struct {
	status     int
	envelope   bool // {"error": …} instead of the accepted/rejected ledger
	retryAfter string
}

// fakeShard is an httptest stand-in for one spstreamd: it records
// every forwarded body and answers from a scripted reply plan
// (default: 200 + ledger accepting every line).
type fakeShard struct {
	id, count int
	lo, hi    int
	dims      []int
	rank      int
	t         int
	mu        sync.Mutex
	bodies    []string
	flushes   []bool
	plan      []ingestReply
	ready     bool
	mode0     [][]float64
	s         []float64
	srv       *httptest.Server
}

func countEvents(body string) int {
	n := 0
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

func newFakeShard(t *testing.T, id, count int, r *Router, rank int) *fakeShard {
	t.Helper()
	lo, hi := r.Block(id)
	f := &fakeShard{
		id: id, count: count, lo: lo, hi: hi,
		dims: r.Dims(), rank: rank, t: 3, ready: true,
		s: make([]float64, rank),
	}
	for k := range f.s {
		f.s[k] = 1 + float64(k)
	}
	// Mode-0 rows are tagged by (shard, row) so the merge test can
	// prove provenance; rows outside the owned block stay zero like a
	// real shard that never saw them.
	f.mode0 = make([][]float64, f.dims[0])
	for i := range f.mode0 {
		f.mode0[i] = make([]float64, rank)
		if i >= lo && i < hi {
			for k := range f.mode0[i] {
				f.mode0[i][k] = float64(100*id+i) + float64(k)/10
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", f.handleIngest)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		ready := f.ready
		f.mu.Unlock()
		if !ready {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "not ready"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /v1/factors", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		factors := [][][]float64{f.mode0}
		for _, d := range f.dims[1:] {
			m := make([][]float64, d)
			for i := range m {
				m[i] = make([]float64, f.rank)
				for k := range m[i] {
					m[i][k] = 1 // simple but nonzero so norms are nontrivial
				}
			}
			factors = append(factors, m)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"t": f.t, "dims": f.dims, "rank": f.rank, "fit": nil,
			"s": f.s, "factors": factors,
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"version": "fake", "t": f.t,
			"shard": map[string]int{"id": f.id, "count": f.count, "row_lo": f.lo, "row_hi": f.hi},
		})
	})
	mux.HandleFunc("GET /v1/reconstruct", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"t": f.t, "coord": r.URL.Query().Get("coord"), "value": float64(f.id),
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := new(strings.Builder)
	if _, err := fmt.Fprint(body, readAll(r)); err != nil {
		panic(err)
	}
	f.mu.Lock()
	f.bodies = append(f.bodies, body.String())
	f.flushes = append(f.flushes, r.URL.Query().Get("flush") != "")
	var reply ingestReply
	if len(f.plan) > 0 {
		reply, f.plan = f.plan[0], f.plan[1:]
	} else {
		reply = ingestReply{status: http.StatusOK}
	}
	f.mu.Unlock()
	if reply.retryAfter != "" {
		w.Header().Set("Retry-After", reply.retryAfter)
	}
	if reply.envelope {
		writeJSON(w, reply.status, map[string]string{"error": "injected fault"})
		return
	}
	writeJSON(w, reply.status, map[string]any{
		"accepted": countEvents(body.String()), "rejected": 0,
		"windows_emitted": 0, "windows_shed": 0,
	})
}

func readAll(r *http.Request) string {
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func (f *fakeShard) recorded() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.bodies...)
}

// newTestGateway wires a gateway over the fakes with fast timeouts.
func newTestGateway(t *testing.T, r *Router, fakes []*fakeShard, mutate func(*Config)) *Gateway {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		urls[i] = f.srv.URL
	}
	cfg := Config{
		Router:         r,
		Shards:         urls,
		Version:        "test",
		RequestTimeout: 2 * time.Second,
		ProbeInterval:  time.Hour, // probes quiesce unless a test wants them
		Backoff:        resilience.BackoffConfig{Base: time.Millisecond, Cap: 5 * time.Millisecond},
		DrainTimeout:   2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func postIngest(g *Gateway, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/ingest", strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

func get(g *Gateway, target string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", target, nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// TestGatewayRoutesIngest: events split by mode-0 row block, arrive at
// the right shards in order, 1-based on the wire, and the forward
// ledger balances to zero pending.
func TestGatewayRoutesIngest(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 3) // blocks [0,4) [4,8) [8,12)
	fakes := []*fakeShard{newFakeShard(t, 0, 3, r, 2), newFakeShard(t, 1, 3, r, 2), newFakeShard(t, 2, 3, r, 2)}
	g := newTestGateway(t, r, fakes, nil)
	g.Start()
	defer g.Shutdown()

	// Rows 1,5,9,2,6,10 (1-based) → shards 0,1,2,0,1,2.
	body := "1 1 1.5\n5 2 2.5\n9 3 3.5\n2 4 4.5\n6 5 5.5\n10 6 6.5\n"
	rec := postIngest(g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d (%s)", rec.Code, rec.Body)
	}
	var resp gatewayIngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 6 || resp.Enqueued != 6 || resp.Rejected != 0 || resp.ShedEvents != 0 {
		t.Fatalf("response = %+v", resp)
	}
	waitFor(t, "forward ledger to settle", func() bool {
		return g.Overload().Processed == 6 && g.Pending() == 0
	})
	want := []string{"1 1 1.5\n2 4 4.5\n", "5 2 2.5\n6 5 5.5\n", "9 3 3.5\n10 6 6.5\n"}
	for i, f := range fakes {
		got := strings.Join(f.recorded(), "")
		if got != want[i] {
			t.Errorf("shard %d received %q, want %q", i, got, want[i])
		}
	}
	ov := g.Overload()
	if ov.Produced != 6 || ov.Processed != 6 || ov.Failed != 0 || ov.Shed() != 0 {
		t.Fatalf("ledger = %s", ov.String())
	}
}

// TestGatewayIngestRejectsWithLineNumbers mirrors the single-node
// contract at the gateway's trust boundary: garbage lines are counted
// and located, never forwarded; an all-garbage body is a 400 with zero
// forwards.
func TestGatewayIngestRejectsWithLineNumbers(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 3)
	fakes := []*fakeShard{newFakeShard(t, 0, 3, r, 2), newFakeShard(t, 1, 3, r, 2), newFakeShard(t, 2, 3, r, 2)}
	g := newTestGateway(t, r, fakes, nil)
	g.Start()
	defer g.Shutdown()

	body := "# comment\n1 1 1.0\nbogus\n99 1 1.0\n5 2 2.0\n"
	rec := postIngest(g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed body = %d (%s)", rec.Code, rec.Body)
	}
	var resp gatewayIngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Rejected != 2 || resp.FirstRejectedLine != 3 || resp.FirstRejectedError == "" {
		t.Fatalf("mixed response = %+v", resp)
	}
	waitFor(t, "both events forwarded", func() bool { return g.Overload().Processed == 2 })

	// All-garbage: 400, located, and no shard hears about it.
	before := len(fakes[0].recorded()) + len(fakes[1].recorded()) + len(fakes[2].recorded())
	rec = postIngest(g, "nope\n99 99 1.0\n")
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "line 1") {
		t.Fatalf("all-garbage = %d (%s)", rec.Code, rec.Body)
	}
	time.Sleep(20 * time.Millisecond)
	after := len(fakes[0].recorded()) + len(fakes[1].recorded()) + len(fakes[2].recorded())
	if after != before {
		t.Fatalf("rejected body reached a shard: %d forwards before, %d after", before, after)
	}
}

// TestGatewayShedsWhenQueueFull: with senders parked, the bounded
// forward queue sheds at admission with 429 + Retry-After and exact
// accounting, and the ledger balances once delivery resumes.
func TestGatewayShedsWhenQueueFull(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 1)
	fakes := []*fakeShard{newFakeShard(t, 0, 1, r, 2)}
	g := newTestGateway(t, r, fakes, func(c *Config) { c.QueueEvents = 4 })
	// Senders not started: pushes accumulate deterministically.

	if rec := postIngest(g, "1 1 1\n2 1 1\n3 1 1\n4 1 1\n"); rec.Code != http.StatusOK {
		t.Fatalf("first batch = %d (%s)", rec.Code, rec.Body)
	}
	rec := postIngest(g, "5 1 1\n6 1 1\n")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow batch = %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var resp gatewayIngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ShedEvents != 2 || resp.Enqueued != 0 {
		t.Fatalf("overflow response = %+v", resp)
	}
	ov := g.Overload()
	if ov.Produced != 6 || ov.ShedNewest != 2 || g.Pending() != 4 {
		t.Fatalf("mid-flight ledger: %s pending=%d", ov.String(), g.Pending())
	}

	// Resume delivery: everything accepted is delivered, nothing twice.
	g.Start()
	defer g.Shutdown()
	waitFor(t, "backlog delivery", func() bool { return g.Overload().Processed == 4 && g.Pending() == 0 })
	ov = g.Overload()
	if ov.Produced != ov.Processed+ov.Failed+ov.Shed() {
		t.Fatalf("ledger does not balance: %s", ov.String())
	}
}

// TestGatewayConsumedBatchNeverResent: a shard answering 429 *with the
// ledger* has absorbed the batch (its own queue shed a window past
// admission); resending would double-ingest. The gateway must treat it
// as terminal after exactly one delivery.
func TestGatewayConsumedBatchNeverResent(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 1)
	f := newFakeShard(t, 0, 1, r, 2)
	f.plan = []ingestReply{{status: http.StatusTooManyRequests, retryAfter: "1"}}
	g := newTestGateway(t, r, []*fakeShard{f}, nil)
	g.Start()
	defer g.Shutdown()

	if rec := postIngest(g, "1 1 1\n2 1 1\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	waitFor(t, "consumed batch settles", func() bool { return g.Overload().Processed == 2 })
	time.Sleep(20 * time.Millisecond) // a wrongful retry would land in this window
	if calls := len(f.recorded()); calls != 1 {
		t.Fatalf("consumed batch sent %d times, want exactly 1", calls)
	}
}

// TestGatewayRetryBackoffLadder: transient shard failures (error
// envelopes) are retried with the same body — FIFO, no reordering, no
// loss — walking the backoff ladder, and a shard Retry-After overrides
// the computed delay exactly.
func TestGatewayRetryBackoffLadder(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 1)
	f := newFakeShard(t, 0, 1, r, 2)
	f.plan = []ingestReply{
		{status: http.StatusServiceUnavailable, envelope: true, retryAfter: "2"},
		{status: http.StatusInternalServerError, envelope: true},
		{status: http.StatusBadGateway, envelope: true},
		// then the default 200 ledger
	}
	var mu sync.Mutex
	var delays []time.Duration
	g := newTestGateway(t, r, []*fakeShard{f}, func(c *Config) {
		// Keep the breaker out of the way: its cooldown runs on the real
		// clock and this test's sleeps are instant.
		c.Breaker = resilience.BreakerConfig{FailureThreshold: 100}
		c.Backoff = resilience.BackoffConfig{Base: 100 * time.Millisecond, Cap: 10 * time.Second, Jitter: -1}
		c.Sleep = func(d time.Duration) bool {
			if d >= time.Minute {
				return false // parked prober; irrelevant here
			}
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
			return true
		}
	})
	g.Start()
	defer g.Shutdown()

	if rec := postIngest(g, "1 1 1\n2 1 1\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	waitFor(t, "delivery after retries", func() bool { return g.Overload().Processed == 2 })
	bodies := f.recorded()
	if len(bodies) != 4 {
		t.Fatalf("delivered in %d attempts, want 4", len(bodies))
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("attempt %d body %q differs from first %q", i+1, bodies[i], bodies[0])
		}
	}
	mu.Lock()
	got := append([]time.Duration(nil), delays...)
	mu.Unlock()
	// Rung 0 is overridden by Retry-After: 2; rungs 1, 2 are the pure
	// exponential ladder (jitter disabled).
	want := []time.Duration{2 * time.Second, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(got) < 3 {
		t.Fatalf("recorded %d delays, want ≥ 3 (%v)", len(got), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("delay[%d] = %v, want %v (all: %v)", i, got[i], w, got)
		}
	}
	ov := g.Overload()
	if ov.Produced != 2 || ov.Processed != 2 || ov.Failed != 0 {
		t.Fatalf("ledger = %s", ov.String())
	}
}

// TestGatewayDegradedReads: with one shard gone, merged reads stay 200
// but say exactly what is missing; point reads for the dead shard's
// rows refuse honestly with 503 + Retry-After; point reads for live
// rows still work.
func TestGatewayDegradedReads(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 3) // blocks [0,4) [4,8) [8,12)
	fakes := []*fakeShard{newFakeShard(t, 0, 3, r, 2), newFakeShard(t, 1, 3, r, 2), newFakeShard(t, 2, 3, r, 2)}
	fakes[1].srv.Close() // shard 1 is down hard (connection refused)
	g := newTestGateway(t, r, fakes, func(c *Config) {
		c.Sleep = func(d time.Duration) bool { return d < time.Minute }
		c.ReadRetries = 1
	})
	g.Start()
	defer g.Shutdown()

	rec := get(g, "/v1/factors")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded factors = %d, want 200 (%s)", rec.Code, rec.Body)
	}
	var fr gatewayFactorsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Partial {
		t.Fatal("degraded read not marked partial")
	}
	if len(fr.Missing) != 1 || fr.Missing[0] != (RowRange{Shard: 1, Lo: 4, Hi: 8}) {
		t.Fatalf("missing = %v, want [{1 4 8}]", fr.Missing)
	}
	// Live shards' rows carry their provenance tags; dead rows are zero.
	if fr.Mode0[0][0] != 0+0.0 && fr.Mode0[0][0] == 0 {
		t.Fatalf("row 0 lost shard 0's data: %v", fr.Mode0[0])
	}
	if fr.Mode0[9][0] != 209 {
		t.Fatalf("row 9 = %v, want shard 2's tag 209", fr.Mode0[9])
	}
	for i := 4; i < 8; i++ {
		for _, v := range fr.Mode0[i] {
			if v != 0 {
				t.Fatalf("dead shard's row %d has data: %v", i, fr.Mode0[i])
			}
		}
	}
	// The merged norm is the sum of the live shards' block norms.
	wantNorm := 0.0
	for _, id := range []int{0, 2} {
		f := fakes[id]
		factors := [][][]float64{f.mode0}
		for _, d := range r.Dims()[1:] {
			m := make([][]float64, d)
			for i := range m {
				m[i] = []float64{1, 1}
			}
			factors = append(factors, m)
		}
		wantNorm += BlockNorm2(factors, f.s, f.lo, f.hi)
	}
	if diff := fr.ModelNorm2 - wantNorm; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("merged norm %g, want %g", fr.ModelNorm2, wantNorm)
	}

	// Point read, live row → proxied with the owner's id.
	rec = get(g, "/v1/reconstruct?coord=9,1")
	if rec.Code != http.StatusOK {
		t.Fatalf("live point read = %d (%s)", rec.Code, rec.Body)
	}
	var pr map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr["shard"] != float64(2) {
		t.Fatalf("point read served by %v, want shard 2", pr["shard"])
	}
	// Point read, dead row → 503 with a hint, not a hang or a lie.
	rec = get(g, "/v1/reconstruct?coord=5,1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead point read = %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("dead point read missing Retry-After")
	}

	// Norm document (coordinate-less reconstruct) degrades the same way.
	rec = get(g, "/v1/reconstruct")
	if rec.Code != http.StatusOK {
		t.Fatalf("norm read = %d (%s)", rec.Code, rec.Body)
	}
	var nr struct {
		Partial    bool       `json:"partial"`
		ModelNorm2 float64    `json:"model_norm2"`
		Missing    []RowRange `json:"missing"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &nr); err != nil {
		t.Fatal(err)
	}
	if !nr.Partial || len(nr.Missing) != 1 {
		t.Fatalf("norm doc = %+v", nr)
	}

	// Stats: partial, the dead shard carries an error, live ones audit
	// clean against the router.
	rec = get(g, "/v1/stats")
	var sr gatewayStatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial || sr.Shards[1].OK || sr.Shards[1].Error == "" {
		t.Fatalf("stats shard 1 = %+v", sr.Shards[1])
	}
	if !sr.Shards[0].OK || sr.Shards[0].Mismatch != "" || sr.Shards[2].Mismatch != "" {
		t.Fatalf("live shard stats = %+v / %+v", sr.Shards[0], sr.Shards[2])
	}

	// Readiness: degraded is still ready; only a fully dark cluster is
	// unready.
	if rec = get(g, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("degraded readyz = %d, want 200", rec.Code)
	}
	for _, s := range g.shards {
		s.breaker.OnFailure()
		s.breaker.OnFailure()
		s.breaker.OnFailure()
	}
	if rec = get(g, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dark readyz = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("all-dark readyz missing Retry-After")
	}
}

// TestGatewayStatsTopologyMismatch: a shard claiming the wrong row
// block is flagged in /v1/stats instead of silently corrupting merges.
func TestGatewayStatsTopologyMismatch(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 2)
	fakes := []*fakeShard{newFakeShard(t, 0, 2, r, 2), newFakeShard(t, 1, 2, r, 2)}
	fakes[1].lo, fakes[1].hi = 0, 6 // lies about its block
	g := newTestGateway(t, r, fakes, nil)

	var sr gatewayStatsResponse
	rec := get(g, "/v1/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Shards[0].Mismatch != "" {
		t.Fatalf("honest shard flagged: %s", sr.Shards[0].Mismatch)
	}
	if sr.Shards[1].Mismatch == "" {
		t.Fatal("lying shard not flagged")
	}
}

// TestGatewayDrainShedsBacklog: shutdown with an undeliverable backlog
// accounts every event as drain-shed — the ledger balances even when
// the cluster goes down dirty.
func TestGatewayDrainShedsBacklog(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 1)
	f := newFakeShard(t, 0, 1, r, 2)
	f.srv.Close() // nothing can be delivered
	g := newTestGateway(t, r, []*fakeShard{f}, func(c *Config) {
		c.DrainTimeout = 50 * time.Millisecond
	})
	g.Start()

	if rec := postIngest(g, "1 1 1\n2 1 1\n3 1 1\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	g.Shutdown()
	ov := g.Overload()
	if ov.ShedDrain != 3 || g.Pending() != 0 {
		t.Fatalf("drain ledger = %s pending=%d", ov.String(), g.Pending())
	}
	if ov.Produced != ov.Processed+ov.Failed+ov.Shed() {
		t.Fatalf("ledger does not balance after drain: %s", ov.String())
	}
	// Post-drain ingest refuses with 503.
	if rec := postIngest(g, "1 1 1\n"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain ingest = %d, want 503", rec.Code)
	}
}
