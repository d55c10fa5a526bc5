package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench command: the
// full run re-executes os.Executable() once per workload.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 50 && c.n*(1000-int(got*10+0.5))/1000 < tailMinBeyond {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than %d samples beyond it", c.n, got, tailMinBeyond)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p, x := tail(v); p != 90 || x != 90 {
		t.Errorf("tail(1..100) = p%v %v, want p90 90", p, x)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "core", Workload: "w", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "mttkrp", Workload: "w", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Layer: "mttkrp", Workload: "w", StartNS: 30, EndNS: 60},   // overlaps 2: 20 new
		{ID: 4, Parent: 1, Layer: "dense", Workload: "w", StartNS: 90, EndNS: 130},   // clipped to the parent: 10
		{ID: 5, Parent: 2, Layer: "parallel", Workload: "w", StartNS: 15, EndNS: 20}, // grandchild
		{ID: 6, Layer: "core", Workload: "other", StartNS: 0, EndNS: 1000},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 30 - 20 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5, 6: 1000}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byLayer := layerSelfMS(spans, "w")
	if got := byLayer["mttkrp"] * 1e6; got != 55 {
		t.Errorf("mttkrp self time = %v ns, want 55", got)
	}
	if _, ok := byLayer["core"]; !ok || byLayer["core"]*1e6 != 40 {
		t.Errorf("core self time = %v ns, want 40 (the other workload's span excluded)", byLayer["core"]*1e6)
	}
	// A slice span's phases plus what they leave uncovered add up to it.
	tr := newTracer()
	var o sliceObs
	o.wall = 100 * time.Millisecond
	o.phases[0], o.phases[4] = 10*time.Millisecond, 70*time.Millisecond
	tr.sliceSpans("w", 3, tr.epoch, o)
	self = selfTimes(tr.spans)
	if got := time.Duration(self[1]); got != 20*time.Millisecond {
		t.Errorf("slice self time = %v, want 20ms unattributed", got)
	}
}

func TestSameSeedSameInput(t *testing.T) {
	for _, w := range workloads(true) {
		sum := func(seed uint64) uint64 {
			if w.batch != nil {
				spec := *w.batch
				spec.blocked = false // the checksum is of the generated slices, not of files
				in, err := spec.generate(seed, "")
				if err != nil {
					t.Fatal(err)
				}
				return in.checksum
			}
			f, err := w.serve.makeFeed(seed, w.serve.windows(0))
			if err != nil {
				t.Fatal(err)
			}
			return f.checksum
		}
		a, b, c := sum(17), sum(17), sum(18)
		if a != b {
			t.Errorf("%s: seed 17 gave checksums %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 17 and 18 gave the same input %x", w.name, a)
		}
	}
}

// fakeDaemon answers the two routes the generator uses: t advances by
// one per window of events posted; the first read stalls.
type fakeDaemon struct {
	mu      sync.Mutex
	events  int
	window  int
	stalled bool
	stall   time.Duration
}

func (d *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/ingest":
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		d.mu.Lock()
		d.events += strings.Count(buf.String(), "\n")
		d.mu.Unlock()
		fmt.Fprintln(w, "{}")
	case "/v1/reconstruct":
		d.mu.Lock()
		first := !d.stalled
		d.stalled = true
		t := primedT + (d.events+d.window-1)/d.window
		d.mu.Unlock()
		if first {
			time.Sleep(d.stall)
		}
		json.NewEncoder(w).Encode(map[string]int{"t": t})
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	s := findWorkload(workloads(true), "serve-steady").serve
	f, err := s.makeFeed(17, 6)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeDaemon{window: s.window, stall: 60 * time.Millisecond}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	obs, err := s.drive(context.Background(), srv.URL, f, nil, "test")
	if err != nil {
		t.Fatal(err)
	}
	// The reader has one connection: the reads that were due while the
	// first one stalled leave late. Timed from when they were sent they
	// would look instant; timed from when they were due, the second read
	// (due one period after the first) waited almost the whole stall.
	if len(obs.readMS) < 3 {
		t.Fatalf("only %d reads", len(obs.readMS))
	}
	if obs.readMS[0] < 60 {
		t.Errorf("first read took %.1f ms, the stall alone is 60 ms", obs.readMS[0])
	}
	wantSecond := 60 - ms(s.readEvery)
	if obs.readMS[1] < wantSecond-1 {
		t.Errorf("second read's latency %.1f ms ignores the %.0f ms it queued behind the stalled read", obs.readMS[1], wantSecond)
	}
	for w, at := range obs.seen {
		if at.IsZero() {
			t.Errorf("window %d never seen committed", w)
		}
	}
	// The producer keeps its schedule whatever the reader does.
	for p := 1; p < len(obs.postDue); p++ {
		if got, want := obs.postDue[p].Sub(obs.postDue[p-1]), time.Duration(float64(s.postEvents)/s.rate*float64(time.Second)); got != want {
			t.Fatalf("POST %d due %v after the previous one, want %v", p, got, want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the code measures %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(ws))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range ws {
		unique(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		unique(m.Name)
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the code %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		unique(m.Name)
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the code %+v", i, d, m)
		}
	}
}

// TestQuickRunsAllSixWorkloads drives the whole command on tiny
// inputs — the daemon child included — untraced and traced, and checks
// that what the code emits is what it declares, and the other way round.
func TestQuickRunsAllSixWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs spstreamd")
	}
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "quick.json"), filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seconds", "0", "-trace", spans, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	emitted := map[string]bool{}
	untraced, traced := map[string]bool{}, map[string]bool{}
	for _, r := range rep.Runs {
		if len(r.Violations) > 0 {
			t.Errorf("%s: %v", r.Workload, r.Violations)
		}
		for k := range r.PerLayer {
			emitted[k] = true
			if !declared[k] {
				t.Errorf("%s emits undeclared per-layer metric %q", r.Workload, k)
			}
		}
		if r.Traced {
			traced[r.Workload] = true
			continue
		}
		untraced[r.Workload] = true
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: end-to-end metrics %v, want exactly the %d declared", r.Workload, r.Metrics, len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, m.Name, v)
			}
		}
	}
	for _, w := range workloads(true) {
		if !untraced[w.name] || !traced[w.name] {
			t.Errorf("%s: untraced run %v, traced run %v", w.name, untraced[w.name], traced[w.name])
		}
	}
	for name := range declared {
		if !emitted[name] {
			t.Errorf("per-layer metric %q is declared but no workload emits it", name)
		}
	}
	var all []span
	if data, err := os.ReadFile(spans); err != nil {
		t.Error(err)
	} else if err := json.Unmarshal(data, &all); err != nil || len(all) == 0 {
		t.Errorf("span file: %d spans, %v", len(all), err)
	}
	for _, s := range all {
		if s.Parent >= s.ID+len(all) || s.EndNS < s.StartNS {
			t.Fatalf("malformed span %+v", s)
		}
	}
}
