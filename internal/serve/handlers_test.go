package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spstream/internal/core"
)

// newTestServer builds an unstarted server (no consumer goroutine:
// admissions queue up, making backpressure deterministic).
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Dims:         []int{8, 6},
		Options:      core.Options{Rank: 2, Seed: 1},
		WindowEvents: 4,
		QueueCap:     2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// eventBody renders n valid events — exactly n/WindowEvents windows
// when n is a multiple.
func eventBody(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d %d 1.0\n", i%8+1, i%6+1)
	}
	return b.String()
}

func doReq(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func TestIngestBackpressure429(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()

	// Queue cap 2, no consumer: two windows fit, the third sheds.
	rec := doReq(h, "POST", "/v1/ingest", eventBody(8))
	if rec.Code != http.StatusOK {
		t.Fatalf("first two windows = %d, want 200 (%s)", rec.Code, rec.Body)
	}
	rec = doReq(h, "POST", "/v1/ingest", eventBody(4))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third window = %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shed != 1 || resp.Accepted != 4 {
		t.Fatalf("shed response = %+v", resp)
	}
}

func TestIngestBreakerOpen503(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.BreakerFailures = 2 })
	h := srv.Handler()
	srv.breaker.OnFailure()
	srv.breaker.OnFailure()

	rec := doReq(h, "POST", "/v1/ingest", eventBody(4))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open ingest = %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if rec = doReq(h, "GET", "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker = %d, want 503", rec.Code)
	}
	if got := srv.Overload().ShedBreaker; got != 1 {
		t.Fatalf("ShedBreaker = %d, want 1", got)
	}
	// Liveness is unaffected: the process itself is healthy.
	if rec = doReq(h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
}

func TestIngestBadInput400(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	rec := doReq(h, "POST", "/v1/ingest", "99 99 nope\n1 999\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("all-garbage body = %d, want 400 (%s)", rec.Code, rec.Body)
	}
	// Garbage mixed with valid events is absorbed, not fatal.
	rec = doReq(h, "POST", "/v1/ingest", "nonsense\n1 1 2.0\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed body = %d, want 200 (%s)", rec.Code, rec.Body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Rejected != 1 {
		t.Fatalf("mixed response = %+v", resp)
	}
}

// TestIngestReportsFirstRejectedLine: a multi-line body with garbage in
// the middle reports the 1-based line number (counting every body line,
// blanks and comments included) and the parse error of the first
// rejected event, both in the 200 envelope and in the all-garbage 400.
func TestIngestReportsFirstRejectedLine(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()

	body := "# header comment\n1 1 2.0\n\n99 1 1.0\nalso bad\n2 2 1.0\n"
	rec := doReq(h, "POST", "/v1/ingest", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed body = %d, want 200 (%s)", rec.Code, rec.Body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Rejected != 2 {
		t.Fatalf("mixed response = %+v", resp)
	}
	if resp.FirstRejectedLine != 4 {
		t.Fatalf("first_rejected_line = %d, want 4 (%+v)", resp.FirstRejectedLine, resp)
	}
	if resp.FirstRejectedError == "" {
		t.Fatal("first rejected event lost its parse error")
	}

	// All-garbage body: the 400 names the line too.
	rec = doReq(h, "POST", "/v1/ingest", "# only comments up here\nbogus line\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("all-garbage body = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "line 2") {
		t.Fatalf("400 body does not locate the bad line: %s", rec.Body)
	}

	// A clean body reports no rejection position at all.
	rec = doReq(h, "POST", "/v1/ingest", "1 1 2.0\n")
	if strings.Contains(rec.Body.String(), "first_rejected_line") {
		t.Fatalf("clean body leaked a rejected-line field: %s", rec.Body)
	}
}

// TestStatsShardBlock: a daemon configured as one shard of a cluster
// reports its mode-0 row block in /v1/stats; an unsharded daemon omits
// the field entirely.
func TestStatsShardBlock(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Shard = &ShardInfo{ID: 1, Count: 3, RowLo: 2, RowHi: 5}
	})
	var sr statsResponse
	rec := doReq(srv.Handler(), "GET", "/v1/stats", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Shard == nil || sr.Shard.ID != 1 || sr.Shard.Count != 3 || sr.Shard.RowLo != 2 || sr.Shard.RowHi != 5 {
		t.Fatalf("shard block = %+v", sr.Shard)
	}

	plain := newTestServer(t, nil)
	rec = doReq(plain.Handler(), "GET", "/v1/stats", "")
	if strings.Contains(rec.Body.String(), "\"shard\"") {
		t.Fatalf("unsharded daemon reports a shard block: %s", rec.Body)
	}
}

func TestIngestBodyLimit413(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.BodyLimit = 64 })
	rec := doReq(srv.Handler(), "POST", "/v1/ingest", eventBody(100))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413 (%s)", rec.Code, rec.Body)
	}
}

func TestPanicContained500(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kernel exploded")
	})
	h := srv.Handler()
	if rec := doReq(h, "GET", "/boom", ""); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	// The daemon survives: the next request is served normally.
	if rec := doReq(h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", rec.Code)
	}
}

func TestFactorsAndReconstruct(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()

	rec := doReq(h, "GET", "/v1/factors", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("factors = %d", rec.Code)
	}
	var fr factorsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Rank != 2 || len(fr.Factors) != 2 || len(fr.Factors[0]) != 8 {
		t.Fatalf("factors shape = t=%d rank=%d modes=%d", fr.T, fr.Rank, len(fr.Factors))
	}
	if rec = doReq(h, "GET", "/v1/factors?mode=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("factors?mode=1 = %d", rec.Code)
	}
	if rec = doReq(h, "GET", "/v1/factors?mode=7", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("factors?mode=7 = %d, want 400", rec.Code)
	}

	if rec = doReq(h, "GET", "/v1/reconstruct?coord=1,1", ""); rec.Code != http.StatusOK {
		t.Fatalf("reconstruct = %d (%s)", rec.Code, rec.Body)
	}
	if rec = doReq(h, "GET", "/v1/reconstruct?coord=9,1", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range reconstruct = %d, want 400", rec.Code)
	}
	if rec = doReq(h, "GET", "/v1/reconstruct?coord=1", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong-arity reconstruct = %d, want 400", rec.Code)
	}
	if rec = doReq(h, "GET", "/v1/reconstruct", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing coord = %d, want 400", rec.Code)
	}
}

func TestStatsDocument(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.Version = "test-1.2.3" })
	rec := doReq(srv.Handler(), "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var sr statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Version != "test-1.2.3" {
		t.Fatalf("version = %q", sr.Version)
	}
	if sr.Breaker.State != "closed" {
		t.Fatalf("breaker state = %q, want closed", sr.Breaker.State)
	}
	if _, ok := sr.Overload["shed_breaker"]; !ok {
		t.Fatal("stats missing shed_breaker counter")
	}
	// No slice is remapped any more, so there is no layout block.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if v, ok := raw["layout"]; ok {
		t.Fatalf("stats carry a layout key: %s", v)
	}
}

func TestDrainingRefusesIngest(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.draining.Store(true)
	h := srv.Handler()
	if rec := doReq(h, "POST", "/v1/ingest", eventBody(4)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest = %d, want 503", rec.Code)
	}
	if rec := doReq(h, "GET", "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", rec.Code)
	}
	// Reads still work during the drain.
	if rec := doReq(h, "GET", "/v1/factors", ""); rec.Code != http.StatusOK {
		t.Fatalf("draining factors = %d, want 200", rec.Code)
	}
}
