package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spstream/internal/ingest"
	"spstream/internal/resilience"
	"spstream/internal/serve/httpx"
)

// routes wires the API surface onto the mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/factors", s.handleFactors)
	s.mux.HandleFunc("GET /v1/reconstruct", s.handleReconstruct)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// recoverMiddleware converts handler panics into 500s. It sits inside
// the timeout wrapper so a panicking handler kills neither the daemon
// nor the other in-flight requests.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Logf("panic in %s %s: %v", r.Method, r.URL.Path, p)
				// The header may already be out; this is best-effort.
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// writeJSON marshals v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// jsonError is the error envelope every non-2xx response carries.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ingestResponse summarizes one ingest POST. FirstRejectedLine is the
// 1-based body line number of the first rejected event (0 when nothing
// was rejected) so a producer posting a multi-line body can find the
// offending record instead of guessing.
type ingestResponse struct {
	Accepted           int    `json:"accepted"`
	Rejected           int    `json:"rejected"`
	Windows            int    `json:"windows_emitted"`
	Shed               int    `json:"windows_shed"`
	FirstRejectedLine  int    `json:"first_rejected_line,omitempty"`
	FirstRejectedError string `json:"first_rejected_error,omitempty"`
}

// handleIngest accepts a text body of event lines ("i j k [value]",
// 1-based coordinates, '#' comments), accumulates them into windows,
// and admits completed windows to the pipeline. ?flush=1 additionally
// flushes the partial window at the end of the body.
//
// Status codes are the backpressure contract: 200 all admitted, 429
// the queue shed at least one window (Retry-After: 1), 503 the circuit
// breaker is open (Retry-After: remaining cooldown) or the daemon is
// draining. Malformed events are counted, not fatal — a live feed
// keeps going past garbage — but a body with zero valid events is 400.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(time.Second))
		jsonError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.BodyLimit)
	flush := r.URL.Query().Get("flush") != ""

	var resp ingestResponse
	var admitErr error
	lineNo := 0
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)

	s.accMu.Lock()
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := ParseEvent(line, s.cfg.Dims)
		if err != nil {
			resp.Rejected++
			if resp.FirstRejectedLine == 0 {
				resp.FirstRejectedLine = lineNo
				resp.FirstRejectedError = err.Error()
			}
			s.rejected.Add(1)
			continue
		}
		resp.Accepted++
		if slice := s.acc.Add(ev); slice != nil {
			resp.Windows++
			if err := s.pipe.Admit(slice); err != nil {
				resp.Shed++
				admitErr = err
			}
		}
	}
	scanErr := sc.Err()
	if scanErr == nil && flush {
		if slice := s.acc.Flush(); slice != nil {
			resp.Windows++
			if err := s.pipe.Admit(slice); err != nil {
				resp.Shed++
				admitErr = err
			}
		}
	}
	s.accMu.Unlock()

	if scanErr != nil {
		var tooBig *http.MaxBytesError
		if errors.As(scanErr, &tooBig) {
			jsonError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.BodyLimit)
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

	switch {
	case admitErr == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(admitErr, ingest.ErrGateClosed):
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(s.breaker.RetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case errors.Is(admitErr, ingest.ErrQueueFull):
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(time.Second))
		writeJSON(w, http.StatusTooManyRequests, resp)
	case errors.Is(admitErr, ingest.ErrDraining):
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(time.Second))
		writeJSON(w, http.StatusServiceUnavailable, resp)
	default:
		jsonError(w, http.StatusInternalServerError, "admit: %v", admitErr)
	}
}

// factorsResponse renders a snapshot. Factor matrices are row-major
// [][]float64 per mode; ?mode=N restricts to one mode for large
// models.
type factorsResponse struct {
	T       int           `json:"t"`
	Dims    []int         `json:"dims"`
	Rank    int           `json:"rank"`
	Fit     *float64      `json:"fit"` // null without fit tracking
	S       []float64     `json:"s"`
	Factors [][][]float64 `json:"factors,omitempty"`
	Mode    *int          `json:"mode,omitempty"`
	Factor  [][]float64   `json:"factor,omitempty"`
}

// handleFactors serves the published snapshot — by construction a
// committed slice boundary, regardless of what the solver is doing.
func (s *Server) handleFactors(w http.ResponseWriter, r *http.Request) {
	snap := s.acquire()
	defer snap.Release()
	resp := factorsResponse{
		T:    snap.T,
		Dims: snap.Dims,
		Rank: snap.Rank,
		Fit:  jsonFloat(snap.Fit),
		S:    snap.S,
	}
	if modeStr := r.URL.Query().Get("mode"); modeStr != "" {
		mode, err := strconv.Atoi(modeStr)
		if err != nil || mode < 0 || mode >= len(snap.Factors) {
			jsonError(w, http.StatusBadRequest, "bad mode %q (have %d modes)", modeStr, len(snap.Factors))
			return
		}
		resp.Mode = &mode
		resp.Factor = matrixRows(snap, mode)
	} else {
		resp.Factors = make([][][]float64, len(snap.Factors))
		for m := range snap.Factors {
			resp.Factors[m] = matrixRows(snap, m)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// matrixRows copies one factor into a JSON-friendly row-major slice.
func matrixRows(snap *FactorSnapshot, mode int) [][]float64 {
	f := snap.Factors[mode]
	rows := make([][]float64, f.Rows)
	for i := 0; i < f.Rows; i++ {
		rows[i] = f.Row(i) // pinned until the response is written; safe to alias
	}
	return rows
}

// jsonFloat maps NaN/Inf (invalid in JSON) to null.
func jsonFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// handleReconstruct evaluates the snapshot model at ?coord=i,j,…
// (1-based, matching the event feed convention).
func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	snap := s.acquire()
	defer snap.Release()
	coordStr := r.URL.Query().Get("coord")
	if coordStr == "" {
		jsonError(w, http.StatusBadRequest, "missing coord=i,j,… query parameter")
		return
	}
	parts := strings.Split(coordStr, ",")
	if len(parts) != len(snap.Dims) {
		jsonError(w, http.StatusBadRequest, "want %d coordinates, got %d", len(snap.Dims), len(parts))
		return
	}
	coord := make([]int32, len(parts))
	for m, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil || v < 1 || int(v) > snap.Dims[m] {
			jsonError(w, http.StatusBadRequest, "bad coordinate %q for mode %d (dim %d)", p, m, snap.Dims[m])
			return
		}
		coord[m] = int32(v - 1)
	}
	val, err := snap.ReconstructAt(coord)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"t": snap.T, "coord": coordStr, "value": val})
}

// statsResponse is the /v1/stats document.
type statsResponse struct {
	Version        string           `json:"version"`
	T              int              `json:"t"`
	Fit            *float64         `json:"fit"`
	Draining       bool             `json:"draining"`
	QueueDepth     int              `json:"queue_depth"`
	RejectedEvents int64            `json:"rejected_events"`
	Shard          *shardStats      `json:"shard,omitempty"`
	Breaker        breakerStats     `json:"breaker"`
	Overload       map[string]int64 `json:"overload"`
	Resilience     resilience.Stats `json:"resilience"`
}

// shardStats reports this daemon's slot in a row-sharded cluster: it
// owns mode-0 rows [row_lo, row_hi) (0-based, half-open) of the global
// tensor. The gateway audits this block against its own router so a
// topology mismatch (wrong -shard-id, wrong -shard-count) is caught
// instead of silently splitting a row range across two owners.
type shardStats struct {
	ID    int `json:"id"`
	Count int `json:"count"`
	RowLo int `json:"row_lo"`
	RowHi int `json:"row_hi"`
}

type breakerStats struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Opens               int    `json:"opens"`
	Probes              int    `json:"probes"`
	RetryAfterSeconds   int    `json:"retry_after_seconds,omitempty"`
}

// handleStats reports the live operational counters: build info, the
// published model position, breaker state, and the full overload and
// resilience breakdowns.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	view := s.stats.Load()
	ov := s.pipe.Stats()
	bs := s.breaker.Snapshot()
	resp := statsResponse{
		Version:        s.cfg.Version,
		T:              view.T,
		Fit:            jsonFloat(view.Fit),
		Draining:       s.draining.Load(),
		QueueDepth:     s.pipe.Depth(),
		RejectedEvents: s.rejected.Load(),
		Breaker: breakerStats{
			State:               bs.State.String(),
			ConsecutiveFailures: bs.ConsecutiveFailures,
			Opens:               int(bs.Opens),
			Probes:              int(bs.Probes),
		},
		Overload: map[string]int64{
			"produced":        ov.Produced,
			"processed":       ov.Processed,
			"failed":          ov.Failed,
			"shed_newest":     ov.ShedNewest,
			"shed_oldest":     ov.ShedOldest,
			"shed_stale":      ov.ShedStale,
			"shed_drain":      ov.ShedDrain,
			"shed_breaker":    ov.ShedBreaker,
			"coalesced":       ov.Coalesced,
			"queue_high":      ov.QueueHighWater,
			"spilled":         ov.Spilled,
			"spill_recovered": ov.SpillRecovered,
			"spill_drained":   ov.SpillDrained,
			"spill_pending":   ov.SpillPending(),
			"spill_bytes":     ov.SpillBytes,
			"shed_spill":      ov.ShedSpill,
		},
		Resilience: view.Resilience,
	}
	if sh := s.cfg.Shard; sh != nil {
		resp.Shard = &shardStats{ID: sh.ID, Count: sh.Count, RowLo: sh.RowLo, RowHi: sh.RowHi}
	}
	if bs.State != resilience.BreakerClosed {
		resp.Breaker.RetryAfterSeconds = httpx.Seconds(s.breaker.RetryAfter())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: false while the breaker is open (the
// solver loop is sick — stop routing traffic here) or the daemon is
// draining. A half-open breaker reports ready: the probe path is how
// it heals, and refusing all traffic would deadlock recovery.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if st := s.breaker.State(); st == resilience.BreakerOpen {
		w.Header().Set("Retry-After", httpx.RetryAfterSeconds(s.breaker.RetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "breaker open"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
