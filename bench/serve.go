package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// serveSpec describes a serving workload: an event feed drawn from the
// flickr distributions, posted to spstreamd, with a point reader
// running beside the writes.
type serveSpec struct {
	presetScale      float64 // flickr preset scale: 0.25 gives dims 1000×100000×5000
	window, queue    int
	every            int           // checkpoint every N windows
	postEvents       int           // events per POST body
	rate             float64       // open loop: events per second
	windowsPerSecond float64       // windows sent per second of -seconds
	readEvery        time.Duration // reader period
	closedLoop       bool          // next POST only after the previous reply
	quickWindows     int           // -quick: fixed window count
}

// windows is how many windows a run of the given length sends.
func (s *serveSpec) windows(d time.Duration) int {
	if s.quickWindows > 0 {
		return s.quickWindows
	}
	return max(12, int(s.windowsPerSecond*d.Seconds()+0.5))
}

// feed is a generated event stream, already rendered into POST bodies.
type feed struct {
	dims     []int
	events   []sptensor.Event
	bodies   [][]byte
	perBody  int
	window   int
	windows  int // ⌈events/window⌉: the last one may be partial and is flushed
	coords   []string
	checksum uint64
	// prime is the stream's first window. The daemon never sees it as
	// events: the bench folds it into the checkpoint the daemon boots
	// from (see primeCheckpoint).
	prime *sptensor.Tensor
}

// primedT is the slice count of the checkpoint every serving run boots
// from: the priming window.
const primedT = 1

// makeFeed draws the priming window and then windows×window events
// from the flickr distributions at the seed, and renders the events as
// "i j k value" lines, 1-based.
func (s *serveSpec) makeFeed(seed uint64, windows int) (*feed, error) {
	cfg, err := synth.Preset("flickr", s.presetScale)
	if err != nil {
		return nil, err
	}
	cfg.Seed, cfg.T, cfg.NNZPerSlice = seed, windows+primedT, s.window
	stream, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	f := &feed{dims: stream.Dims, perBody: s.postEvents, window: s.window, checksum: inputChecksum(stream.Slices)}
	var body bytes.Buffer
	flush := func() {
		if body.Len() > 0 {
			f.bodies = append(f.bodies, append([]byte(nil), body.Bytes()...))
			body.Reset()
		}
	}
	f.prime = stream.Slices[0]
	for _, x := range stream.Slices[primedT:] {
		for e, v := range x.Vals {
			ev := sptensor.Event{Coord: make([]int32, len(f.dims)), Value: v}
			for m := range f.dims {
				ev.Coord[m] = x.Inds[m][e]
				body.WriteString(strconv.Itoa(int(ev.Coord[m]) + 1))
				body.WriteByte(' ')
			}
			body.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			body.WriteByte('\n')
			f.events = append(f.events, ev)
			if len(f.events)%s.postEvents == 0 {
				flush()
			}
		}
	}
	flush()
	f.windows = (len(f.events) + s.window - 1) / s.window
	// The reader cycles over coordinates the feed itself touches.
	for i := 0; i < 64 && i < len(f.events); i++ {
		ev := f.events[i*len(f.events)/64]
		parts := make([]string, len(ev.Coord))
		for m, c := range ev.Coord {
			parts[m] = strconv.Itoa(int(c) + 1)
		}
		f.coords = append(f.coords, strings.Join(parts, ","))
	}
	return f, nil
}

// postOfWindow is the index of the POST body carrying window w's last event.
func (f *feed) postOfWindow(w int) int {
	last := min((w+1)*f.window, len(f.events)) - 1
	return last / f.perBody
}

// primeCheckpoint writes the checkpoint a serving run boots from: a
// decomposer with the daemon's options and worker count (the factors
// depend on it in their last bits) that has taken the priming window
// in one inner iteration.
//
// Without it the daemon's first window meets an empty history and,
// over its twenty inner iterations, scales every factor row it does
// not touch — 98 % of them — to 1e-120 (firstSliceIters has the
// arithmetic). The model then collapses to zero, and for the rest of
// the run the factors drift through the denormal range at a pace that
// differs from seed to seed: 44 to 77 ms a window for the same work.
// spstreamd has no flag for the iteration bound, but it restores the
// newest checkpoint in -checkpoint-dir, and that is an interface the
// bench can use from outside.
func (s *serveSpec) primeCheckpoint(ctx context.Context, f *feed, workers int, ckDir string) error {
	dec, err := core.NewDecomposer(f.dims, daemonOptions(workers))
	if err != nil {
		return err
	}
	if _, err := feedSlice(ctx, dec, 0, func() (core.SliceResult, error) { return dec.ProcessSliceContext(ctx, f.prime) }); err != nil {
		return fmt.Errorf("priming window: %w", err)
	}
	mgr, err := resilience.NewManager(ckDir, s.every, 3)
	if err != nil {
		return err
	}
	_, err = mgr.Write(dec.T(), dec)
	return err
}

// daemon is a running spstreamd child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
}

func dimsFlag(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

// startDaemon boots the built spstreamd with the workload's flags on a
// free port and waits until /readyz answers 200.
func startDaemon(ctx context.Context, env *runEnv, s *serveSpec, f *feed, dir string) (*daemon, error) {
	dims := f.dims
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.primeCheckpoint(ctx, f, env.daemonProcs, filepath.Join(dir, "ck")); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "spstreamd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(env.daemonBin,
		"-addr", "127.0.0.1:0", "-dims", dimsFlag(dims), "-rank", strconv.Itoa(rank), "-alg", "spcp",
		"-window", strconv.Itoa(s.window), "-queue", strconv.Itoa(s.queue),
		"-spill-dir", filepath.Join(dir, "wal"), "-checkpoint-dir", filepath.Join(dir, "ck"),
		"-every", strconv.Itoa(s.every))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(env.daemonProcs))
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("spstreamd exited before listening (see %s)", logf.Name())
		}
		d.base = "http://" + a
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("spstreamd did not report its address within 20 s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("spstreamd not ready within 20 s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks for the graceful drain and waits for the exit; a daemon
// that ignores SIGTERM for 30 s is killed.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.cmd.Wait()
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("spstreamd ignored SIGTERM for 30 s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
}

// oneConn is an HTTP client that keeps exactly one connection, so the
// generator is two connections: one producer, one reader.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			DialContext: (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
		Timeout: 60 * time.Second,
	}
}

// statsDoc is the part of /v1/stats the bench reads.
type statsDoc struct {
	T        int              `json:"t"`
	Fit      *float64         `json:"fit"`
	Overload map[string]int64 `json:"overload"`
}

// ledgerBalanced is the exact accounting invariant of the ingest
// pipeline: produced + spill_recovered ==
// processed + failed + coalesced + shed + spill_pending.
func ledgerBalanced(o map[string]int64) bool {
	shed := o["shed_newest"] + o["shed_oldest"] + o["shed_stale"] + o["shed_drain"] + o["shed_breaker"] + o["shed_spill"]
	return o["produced"]+o["spill_recovered"] == o["processed"]+o["failed"]+o["coalesced"]+shed+o["spill_pending"]
}

// loadObs is what the generator saw during one serving run.
type loadObs struct {
	firstSend time.Time
	postSent  []time.Time // actual send time of each POST
	postDue   []time.Time // scheduled send time (open loop) or actual (closed loop)
	lateMS    []float64   // open loop: how late each POST left
	readMS    []float64   // read latency from the due time
	seen      []time.Time // seen[w]: first read whose t covers window w
	non2xx    int
	requests  int
}

// drive runs the producer and the reader against base until every
// window has been seen committed (or the run times out).
func (s *serveSpec) drive(ctx context.Context, base string, f *feed, tr *tracer, workload string) (*loadObs, error) {
	obs := &loadObs{
		postSent: make([]time.Time, len(f.bodies)), postDue: make([]time.Time, len(f.bodies)),
		seen: make([]time.Time, f.windows),
	}
	timeout := time.Duration(f.windows)*time.Second/2 + 30*time.Second
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var mu sync.Mutex // guards non2xx and requests
	count := func(status int) {
		mu.Lock()
		obs.requests++
		if status < 200 || status > 299 {
			obs.non2xx++
		}
		mu.Unlock()
	}
	start := time.Now().Add(10 * time.Millisecond)
	obs.firstSend = start
	period := time.Duration(float64(s.postEvents) / s.rate * float64(time.Second))

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	allSeen := make(chan struct{})

	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		client := oneConn()
		defer client.CloseIdleConnections()
		for p, body := range f.bodies {
			due := start.Add(time.Duration(p) * period)
			if s.closedLoop {
				due = time.Now()
				if p == 0 {
					due = start
				}
			}
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			url := base + "/v1/ingest"
			if p == len(f.bodies)-1 {
				url += "?flush=1"
			}
			sent := time.Now()
			obs.postDue[p], obs.postSent[p] = due, sent
			if !s.closedLoop {
				obs.lateMS = append(obs.lateMS, ms(sent.Sub(due)))
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			spanID := 0
			if tr != nil {
				spanID = tr.reserve()
				req.Header.Set(spanHeader, strconv.Itoa(spanID))
			}
			resp, err := client.Do(req)
			if err != nil {
				errs <- fmt.Errorf("POST %d: %w", p, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			count(resp.StatusCode)
			if tr != nil {
				tr.finish(spanID, 0, "POST /v1/ingest", "client", workload, p*s.postEvents/s.window, sent, time.Now())
			}
		}
	}()

	wg.Add(1)
	go func() { // reader, doubling as the commit detector
		defer wg.Done()
		client := oneConn()
		defer client.CloseIdleConnections()
		next := 0 // first window not yet seen
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * s.readEvery)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			} else if ctx.Err() != nil {
				return
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/reconstruct?coord="+f.coords[i%len(f.coords)], nil)
			if err != nil {
				errs <- err
				return
			}
			spanID := 0
			if tr != nil {
				spanID = tr.reserve()
				req.Header.Set(spanHeader, strconv.Itoa(spanID))
			}
			sent := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				if ctx.Err() == nil {
					errs <- fmt.Errorf("GET reconstruct: %w", err)
				}
				return
			}
			var doc struct {
				T int `json:"t"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			got := time.Now()
			count(resp.StatusCode)
			if derr != nil {
				errs <- fmt.Errorf("GET reconstruct: %w", derr)
				return
			}
			obs.readMS = append(obs.readMS, ms(got.Sub(due)))
			if tr != nil {
				tr.finish(spanID, 0, "GET /v1/reconstruct", "client", workload, doc.T, sent, got)
			}
			for next < f.windows && doc.T > next+primedT {
				obs.seen[next] = got
				next++
			}
			if next == f.windows {
				close(allSeen)
				return
			}
		}
	}()

	select {
	case <-allSeen:
	case err := <-errs:
		cancel()
		wg.Wait()
		return obs, err
	case <-ctx.Done():
		wg.Wait()
		return obs, fmt.Errorf("timed out after %v waiting for %d windows to commit", timeout, f.windows)
	}
	wg.Wait()
	return obs, nil
}

// getStats reads /v1/stats.
func getStats(base string) (*statsDoc, error) {
	var doc statsDoc
	if err := getJSON(context.Background(), http.DefaultClient, base+"/v1/stats", &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// finalStats reads /v1/stats once its t has caught up with the last
// window: the daemon publishes the snapshot readers see before the
// stats view, so the first read showing the last commit can be a few
// milliseconds ahead of the ledger.
func finalStats(base string, windows int) (*statsDoc, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := getStats(base)
		if err != nil || st.T >= windows || time.Now().After(deadline) {
			return st, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serveMetrics turns what the generator saw into the result's
// end-to-end numbers and bench.* per-layer numbers, and applies the
// serving gates.
func (s *serveSpec) serveMetrics(res *result, f *feed, obs *loadObs, st *statsDoc, cpuSeconds float64) {
	res.Attempted += obs.requests + f.windows
	res.Failed += obs.non2xx
	if obs.non2xx > 0 {
		res.violate("%d of %d responses were not 2xx", obs.non2xx, obs.requests)
	}
	lastSeen := obs.seen[f.windows-1]
	res.PerLayer["bench.nnz_per_s"] = float64(len(f.events)) / lastSeen.Sub(obs.firstSend).Seconds()
	res.PerLayer["bench.cpu_ms_per_slice"] = 1000 * cpuSeconds / float64(f.windows)

	// Window w's commit lag runs from the due time of the POST that
	// carried its last event to the first read showing it.
	var lags, gaps []float64
	const stride = 5 // commit intervals are taken over 5 windows, so the 4 ms read period does not quantise them
	for w := warmupSlices; w < f.windows; w++ {
		lags = append(lags, ms(obs.seen[w].Sub(obs.postDue[f.postOfWindow(w)])))
		if w >= warmupSlices+stride {
			gaps = append(gaps, ms(obs.seen[w].Sub(obs.seen[w-stride]))/stride)
		}
	}
	sliceMS := lags
	if s.closedLoop {
		sliceMS = gaps
	}
	res.setN("slice_ms_p25", percentile(sorted(sliceMS), 25), len(sliceMS))
	res.PerLayer["bench.slice_ms_p50"] = median(sliceMS)
	tp, tv := tail(lags)
	res.PerLayer["bench.slice_ms_tail"] = tv
	res.PerLayer["bench.slice_tail_pct"] = tp
	res.PerLayer["bench.commit_lag_ms_p50"] = median(lags)
	reads := sorted(obs.readMS)
	res.PerLayer["bench.read_ms_p50"] = percentile(reads, 50)
	rp := tailPercentile(len(reads))
	res.PerLayer["bench.read_ms_tail"] = percentile(reads, rp)
	res.PerLayer["bench.read_tail_pct"] = rp
	res.Samples["bench.read_ms_p50"] = len(reads)
	if len(obs.lateMS) > 0 {
		late := percentile(sorted(obs.lateMS), 99)
		res.PerLayer["bench.generator_late_ms_p99"] = late
		if late > 2 {
			res.flag("generator ran late: p99 %.2f ms past the schedule (limit 2 ms)", late)
		}
	}

	if st.Fit != nil {
		res.PerLayer["bench.fit_final"] = *st.Fit
	} else {
		res.violate("/v1/stats reports no fit for the last window")
	}
	if st.T != f.windows+primedT {
		res.violate("final t = %d, want the priming window + %d windows", st.T, f.windows)
	}
	o := st.Overload
	if !ledgerBalanced(o) {
		res.violate("ledger invariant broken: %v", o)
	}
	lost := o["failed"] + o["shed_newest"] + o["shed_oldest"] + o["shed_stale"] + o["shed_drain"] + o["shed_breaker"] + o["shed_spill"]
	res.Failed += int(lost)
	if lost > 0 {
		res.violate("%d windows failed or were shed", lost)
	}
	res.PerLayer["ingest.queue_high_water"] = float64(o["queue_high"])
	res.PerLayer["ingest.spilled"] = float64(o["spilled"])
	res.PerLayer["ingest.shed"] = float64(lost)
	switch {
	case s.quickWindows > 0:
		// Ten toy windows say nothing about where the queue saturates.
	case s.closedLoop && o["spilled"] == 0:
		res.violate("the burst never reached the spill WAL (spilled = 0): the workload no longer saturates the queue")
	case !s.closedLoop && o["spilled"] != 0:
		res.violate("%d windows spilled at the steady rate: %g events/s is above what this host sustains", o["spilled"], s.rate)
	}
}

// runServe measures one serving workload. Untraced, the system under
// test is the real spstreamd child; traced (see servetrace.go), the
// same server runs in this process so that its handlers can be wrapped.
func runServe(ctx context.Context, env *runEnv, w workload, tr *tracer) (*result, error) {
	s := w.serve
	res := newResult(w.name, env)
	windows := s.windows(env.duration)
	res.T = windows
	if tr != nil {
		return runServeTraced(ctx, env, w, tr, res, windows)
	}

	var f *feed
	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.kill()
		}
		t0 := time.Now()
		var err error
		if f, err = s.makeFeed(env.seed, windows); err != nil {
			return nil, err
		}
		if d, err = startDaemon(ctx, env, s, f, filepath.Join(env.dir, fmt.Sprintf("daemon-%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	res.InputChecksum = f.checksum

	cpu0 := procCPUSeconds(d.cmd.Process.Pid)
	obs, err := s.drive(ctx, d.base, f, nil, w.name)
	if err != nil {
		d.kill()
		return nil, err
	}
	cpu := procCPUSeconds(d.cmd.Process.Pid) - cpu0
	st, err := finalStats(d.base, f.windows+primedT)
	if err != nil {
		d.kill()
		return nil, err
	}
	res.set("peak_rss_mb", procStatusMB(d.cmd.Process.Pid, "VmHWM"))
	if err := d.stop(); err != nil {
		res.violate("spstreamd did not exit cleanly: %v", err)
	}
	s.serveMetrics(res, f, obs, st, cpu)
	return res, nil
}
