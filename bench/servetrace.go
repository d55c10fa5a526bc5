package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/serve"
	"spstream/internal/sptensor"
	"spstream/internal/version"
)

// daemonOptions are the decomposer options cmd/spstreamd builds from
// the workload's flags (its defaults: -mu 0.95, fit tracking and
// normalisation on, skip-on-error resilience). The traced run's
// in-process server and the control decomposer both use them.
func daemonOptions(workers int) core.Options {
	return core.Options{
		Rank: rank, Algorithm: core.SpCPStream, Mu: 0.95, TrackFit: true, Normalize: true, Workers: workers,
		Resilience: &resilience.Config{Policy: resilience.SkipSlice},
	}
}

// handlerTimes is the timing middleware around serve.Server.Handler():
// per-route handler time, status classes, and a handler span under the
// client span named in the request header.
type handlerTimes struct {
	next     http.Handler
	tr       *tracer
	workload string

	mu     sync.Mutex
	byPath map[string][]float64 // handler time in ms
	status map[int]int
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func (h *handlerTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(rec, r)
	end := time.Now()
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	h.tr.add(parent, "handler "+r.URL.Path, "serve", h.workload, -1, start, end)
	h.mu.Lock()
	h.byPath[r.URL.Path] = append(h.byPath[r.URL.Path], ms(end.Sub(start)))
	h.status[rec.code]++
	h.mu.Unlock()
}

// runServeTraced is the traced run of a serving workload: the same
// server as the daemon, built in this process from serve.New and
// serve.Run so that Handler() can be wrapped, driven by the same
// generator; then a control decomposer fed the same windows (the gate
// on what was served, and the source of the core.* split), and the
// direct-call probes.
func runServeTraced(ctx context.Context, env *runEnv, w workload, tr *tracer, res *result, windows int) (*result, error) {
	s := w.serve
	setupStart := time.Now()
	f, err := s.makeFeed(env.seed, windows)
	if err != nil {
		return nil, err
	}
	res.InputChecksum = f.checksum
	dir := filepath.Join(env.dir, "inproc")
	opts := daemonOptions(env.daemonProcs)
	if err := s.primeCheckpoint(ctx, f, env.daemonProcs, filepath.Join(dir, "ck")); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Dims: f.dims, Options: opts, WindowEvents: s.window, QueueCap: s.queue,
		SpillDir: filepath.Join(dir, "wal"), CheckpointDir: filepath.Join(dir, "ck"), CheckpointEvery: s.every,
		Version: version.String(),
	})
	if err != nil {
		return nil, err
	}
	// Run owns the pipeline and the shutdown sequence; it serves the
	// bare handler on its own listener, which nothing connects to. The
	// generator talks to a second listener in front of the wrapped one.
	lnRun, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnRun.Close()
		return nil, err
	}
	runCtx, stopRun := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(runCtx, lnRun) }()
	mw := &handlerTimes{next: srv.Handler(), tr: tr, workload: w.name, byPath: map[string][]float64{}, status: map[int]int{}}
	front := &http.Server{Handler: mw}
	frontDone := make(chan error, 1)
	go func() { frontDone <- front.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	shutdown := func() error {
		stopRun()
		err := <-runDone
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(sctx)
		<-frontDone
		return err
	}
	res.set("setup_s", time.Since(setupStart).Seconds())

	heap := startHeapSampler()
	// A slow whole-factor reader beside the point reader: mode 0, 5/s.
	factorsCtx, stopFactors := context.WithCancel(ctx)
	var factorReads []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := oneConn()
		defer client.CloseIdleConnections()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			t0 := time.Now()
			if _, err := getFactor(factorsCtx, client, base, 0); err != nil {
				return
			}
			factorReads = append(factorReads, ms(time.Since(t0)))
			select {
			case <-factorsCtx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	cpu0 := procCPUSeconds(os.Getpid())
	obs, err := s.drive(ctx, base, f, tr, w.name)
	cpu := procCPUSeconds(os.Getpid()) - cpu0 // the generator's share included: the server is in this process
	stopFactors()
	wg.Wait()
	if err != nil {
		shutdown()
		return nil, err
	}
	st, err := finalStats(base, f.windows+primedT)
	if err != nil {
		shutdown()
		return nil, err
	}
	served, err := getFactor(ctx, oneConn(), base, 0)
	if err != nil {
		shutdown()
		return nil, err
	}
	snap := srv.Snapshot()
	res.PerLayer["core.peak_heap_mb"] = heap.stop()
	if err := shutdown(); err != nil {
		res.violate("in-process server did not shut down cleanly: %v", err)
	}
	s.serveMetrics(res, f, obs, st, cpu)

	pl := res.PerLayer
	pl["serve.ingest_handler_ms_p50"] = median(mw.byPath["/v1/ingest"])
	pl["serve.reconstruct_handler_us_p50"] = 1000 * median(mw.byPath["/v1/reconstruct"])
	pl["serve.factors_read_ms_p50"] = median(factorReads)
	pl["serve.status_2xx"], pl["serve.status_429"], pl["serve.status_503"] = 0, 0, 0
	for code, n := range mw.status {
		switch {
		case code >= 200 && code < 300:
			pl["serve.status_2xx"] += float64(n)
		case code == http.StatusTooManyRequests:
			pl["serve.status_429"] += float64(n)
		case code == http.StatusServiceUnavailable:
			pl["serve.status_503"] += float64(n)
		}
	}

	// The control: an in-process decomposer fed the windows the server
	// built from the same events. What was served must equal it bit
	// for bit, and its Breakdown gives the solver's per-phase split.
	ctl, wins, err := controlDecomposer(ctx, f, opts, w.name, res, tr)
	if err != nil {
		return nil, err
	}
	if !snap.Equal(serve.TakeSnapshot(ctl, snap.Fit)) {
		res.violate("the served snapshot differs from the control decomposer fed the same windows")
	}
	f0 := ctl.Factor(0)
	same := len(served) == f0.Rows
	for i := 0; same && i < f0.Rows; i++ {
		for j, v := range f0.Row(i) {
			if math.Float64bits(served[i][j]) != math.Float64bits(v) {
				same = false
				break
			}
		}
	}
	if !same {
		res.violate("GET /v1/factors?mode=0 differs from the control decomposer's mode-0 factor")
	}

	kernelProbes(env, w.name, wins[len(wins)/2], modelFactors(ctl), string(ctl.KernelSchedule(nil)), res, tr)
	if err := serveProbes(ctx, env, w.name, f, ctl, opts, wins, res, tr); err != nil {
		return nil, err
	}
	if err := clusterProbe(ctx, env, w.name, f, s, res, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// getJSON decodes a 200 reply into out.
func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getFactor fetches one mode's factor matrix from a daemon's /v1/factors.
func getFactor(ctx context.Context, client *http.Client, base string, mode int) ([][]float64, error) {
	var doc struct {
		Factor [][]float64 `json:"factor"`
	}
	err := getJSON(ctx, client, fmt.Sprintf("%s/v1/factors?mode=%d", base, mode), &doc)
	return doc.Factor, err
}

// controlDecomposer cuts the feed into the windows the server's
// accumulator would and pushes them through a decomposer with the
// daemon's options, recording the per-window phase split and spans.
func controlDecomposer(ctx context.Context, f *feed, opts core.Options, name string, res *result, tr *tracer) (*core.Decomposer, []*sptensor.Tensor, error) {
	acc := sptensor.NewWindowAccumulator(f.dims, f.window)
	wins := []*sptensor.Tensor{f.prime}
	for _, ev := range f.events {
		if x := acc.Add(ev); x != nil {
			wins = append(wins, x)
		}
	}
	if x := acc.Flush(); x != nil {
		wins = append(wins, x)
	}
	dec, err := core.NewDecomposer(f.dims, opts)
	if err != nil {
		return nil, nil, err
	}
	run := &batchRun{in: &batchInput{dims: f.dims, slices: wins}, dec: dec}
	var split coreSplit
	for t := range wins {
		start := time.Now()
		o, err := run.step(ctx, t)
		if err != nil {
			return nil, nil, fmt.Errorf("control window: %w", err)
		}
		if t < warmupSlices {
			continue
		}
		tr.sliceSpans(name, t, start, o)
		split.add(o)
	}
	split.emit(res)
	saveStateProbe(dec, name, res, tr)
	res.KernelSchedule = string(dec.KernelSchedule(nil))
	return dec, wins, nil
}
