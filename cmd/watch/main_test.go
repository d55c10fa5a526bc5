package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spstream"
	"spstream/internal/serve"
	"spstream/internal/synth"
)

// testConfig is the baseline command configuration the tests tweak.
func testConfig(dims []int, window int) config {
	return config{
		dims:         dims,
		window:       window,
		rank:         4,
		topN:         2,
		mu:           0.95,
		alg:          spstream.SpCPStream,
		queueCap:     8,
		policy:       spstream.ShedBlock,
		drainTimeout: 10 * time.Second,
	}
}

func TestParseDims(t *testing.T) {
	dims, err := serve.ParseDims("10, 20,30")
	if err != nil || len(dims) != 3 || dims[1] != 20 {
		t.Fatalf("dims=%v err=%v", dims, err)
	}
	for _, bad := range []string{"", "10", "10,x", "10,-2"} {
		if _, err := serve.ParseDims(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseEvent(t *testing.T) {
	dims := []int{5, 6}
	ev, err := serve.ParseEvent("2 3 1.5", dims)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Coord[0] != 1 || ev.Coord[1] != 2 || ev.Value != 1.5 {
		t.Fatalf("event = %+v", ev)
	}
	// Default value.
	ev, err = serve.ParseEvent("1 1", dims)
	if err != nil || ev.Value != 1 {
		t.Fatalf("default value wrong: %+v %v", ev, err)
	}
	for _, bad := range []string{
		"1", "0 1", "6 1", "1 1 x", "1 1 1 1",
		"99999999999999999999 1",          // coordinate overflow
		"1 1 NaN", "1 1 +Inf", "1 1 -Inf", // non-finite values
	} {
		if _, err := serve.ParseEvent(bad, dims); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// FuzzParseEvent: the event-line parser — the one watch, the daemon and
// the gateway share (serve.ParseEvent) — is the trust boundary for
// arbitrary feed input: it must never panic, and anything it accepts
// must be a well-formed in-range event with a finite value.
func FuzzParseEvent(f *testing.F) {
	f.Add("1 2 3.5")
	f.Add("5 6")
	f.Add("0 0 0")
	f.Add("99999999999999999999 1")
	f.Add("1 1 NaN")
	f.Add("1 1 Inf")
	f.Add("-1 -1 -1e309")
	f.Add("\t 2 3 \x00")
	dims := []int{5, 6}
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := serve.ParseEvent(line, dims)
		if err != nil {
			return
		}
		if len(ev.Coord) != len(dims) {
			t.Fatalf("accepted event with %d coords", len(ev.Coord))
		}
		for m, c := range ev.Coord {
			if c < 0 || int(c) >= dims[m] {
				t.Fatalf("accepted out-of-range coordinate %d for mode %d in %q", c, m, line)
			}
		}
		if math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0) {
			t.Fatalf("accepted non-finite value %v in %q", ev.Value, line)
		}
	})
}

// -alg goes through the parser all three CLIs share (table-tested in
// internal/core); this pins what reaches watch through the facade.
func TestParseAlg(t *testing.T) {
	if a, err := spstream.ParseAlgorithm("spcp"); err != nil || a != spstream.SpCPStream {
		t.Fatal("spcp parse wrong")
	}
	for _, bad := range []string{"nope", "baseline"} {
		if _, err := spstream.ParseAlgorithm(bad); err == nil {
			t.Fatalf("algorithm %q accepted", bad)
		}
	}
}

// syncBuffer lets tests poll output while run() is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// eventFeed synthesizes a diagonal-structured event feed.
func eventFeed(events int, seed uint64) *bytes.Buffer {
	r := synth.NewRNG(seed)
	var in bytes.Buffer
	for e := 0; e < events; e++ {
		i := r.Intn(10) + 1
		j := i // diagonal-ish structure
		if r.Float64() < 0.2 {
			j = r.Intn(10) + 1
		}
		fmt.Fprintf(&in, "%d %d %g\n", i, j, 1+0.1*r.NormFloat64())
	}
	return &in
}

func TestRunEndToEnd(t *testing.T) {
	in := eventFeed(2500, 4)
	in.WriteString("# a comment\n\n")
	var out bytes.Buffer
	if err := run(context.Background(), in, &out, testConfig([]int{10, 10}, 1000)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Count(s, "window ") != 3 { // 2500 events → 2 full + 1 flush
		t.Fatalf("expected 3 windows:\n%s", s)
	}
	if !strings.Contains(s, "component") || !strings.Contains(s, "fit") {
		t.Fatalf("summary missing fields:\n%s", s)
	}
}

// TestRunRejectsGarbageLines: malformed lines in a live feed are
// counted and skipped, not fatal — and reported by -stats.
func TestRunRejectsGarbageLines(t *testing.T) {
	in := eventFeed(1000, 5)
	in.WriteString("99 1 garbage\n1 1 NaN\nnot numbers at all\n")
	var out bytes.Buffer
	cfg := testConfig([]int{10, 10}, 500)
	cfg.stats = true
	if err := run(context.Background(), in, &out, cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "rejected=3") {
		t.Fatalf("stats line missing rejected=3:\n%s", s)
	}
	if !strings.Contains(s, "produced=") || !strings.Contains(s, "processed=") {
		t.Fatalf("stats line missing counters:\n%s", s)
	}
}

// TestRunGracefulInterrupt: cancelling the context mid-feed (the SIGINT
// path) drains the backlog and writes a restorable checkpoint.
func TestRunGracefulInterrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	// An endless feed: the run can only end via the context.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	feedErr := make(chan error, 1)
	go func() {
		defer pw.Close()
		r := synth.NewRNG(7)
		for {
			i, j := r.Intn(10)+1, r.Intn(10)+1
			if _, err := fmt.Fprintf(pw, "%d %d 1\n", i, j); err != nil {
				feedErr <- nil // reader gone: expected at shutdown
				return
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	cfg := testConfig([]int{10, 10}, 200)
	cfg.checkpointDir = dir
	cfg.stats = true
	done := make(chan error, 1)
	go func() { done <- run(ctx, pr, &out, cfg) }()

	// Let a few windows through, then interrupt.
	deadline := time.After(10 * time.Second)
	for {
		time.Sleep(10 * time.Millisecond)
		if strings.Count(out.String(), "window ") >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no windows processed:\n%s", out.String())
		default:
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after interrupt: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "interrupted: backlog drained") {
		t.Fatalf("missing drain message:\n%s", s)
	}
	if !strings.Contains(s, "checkpoint: ") {
		t.Fatalf("missing checkpoint message:\n%s", s)
	}
	// The checkpoint must restore into a fresh decomposer.
	dec, err := spstream.New([]int{10, 10}, spstream.Options{Rank: 4, Algorithm: spstream.SpCPStream, Mu: 0.95, TrackFit: true, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spstream.RestoreNewestCheckpoint(dir, dec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dec.T() == 0 {
		t.Fatal("restored checkpoint has no slices")
	}
}

// TestRunWindowTimeout: a sparse feed emits a partial window after the
// wall-clock timeout instead of stalling until EOF.
func TestRunWindowTimeout(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	cfg := testConfig([]int{10, 10}, 1_000_000) // count alone would never trigger
	cfg.windowTimeout = 30 * time.Millisecond
	done := make(chan error, 1)
	go func() { done <- run(ctx, pr, &out, cfg) }()

	for e := 0; e < 50; e++ {
		fmt.Fprintf(pw, "%d %d 1\n", e%10+1, e%10+1)
	}
	deadline := time.After(10 * time.Second)
	for strings.Count(out.String(), "window ") < 1 {
		time.Sleep(10 * time.Millisecond)
		select {
		case <-deadline:
			t.Fatalf("timeout window never emitted:\n%s", out.String())
		default:
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), strings.NewReader(""), &out, testConfig([]int{5, 5}, 100)); err == nil {
		t.Fatal("empty input accepted")
	}
	// A lone malformed line is rejected, leaving no windows.
	if err := run(context.Background(), strings.NewReader("99 1\n"), &out, testConfig([]int{5, 5}, 100)); err == nil {
		t.Fatal("feed with no valid events accepted")
	}
}

// dirBytes sums the file sizes under dir.
func dirBytes(t *testing.T, dir string) (n int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestRunSpillWavesReclaimDisk: -spill-dir without -checkpoint-dir. Ten
// bursts, each overflowing the 2-deep queue into the WAL and each
// drained before the next, under a -spill-max-bytes cap a few bursts
// would exceed if consumed records stayed on disk — which they did
// before the pipeline committed offsets on its own: the cap was hit,
// every later overflow was shed, and the "lossless" policy lost windows.
func TestRunSpillWavesReclaimDisk(t *testing.T) {
	spill := t.TempDir()
	pr, pw := io.Pipe()
	var out syncBuffer
	cfg := testConfig([]int{10, 10}, 20)
	cfg.queueCap = 2
	cfg.spillDir = spill
	cfg.spillMaxBytes = 32 << 10
	cfg.stats = true
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), pr, &out, cfg) }()

	const waves, perWave = 10, 40 // ≈ 14 KiB of records a wave
	r := synth.NewRNG(3)
	for w := 1; w <= waves; w++ {
		var burst bytes.Buffer
		for e := 0; e < perWave*cfg.window; e++ {
			fmt.Fprintf(&burst, "%d %d 1\n", r.Intn(10)+1, r.Intn(10)+1)
		}
		if _, err := pw.Write(burst.Bytes()); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(20 * time.Second); strings.Count(out.String(), "window ") < w*perWave; {
			if time.Now().After(deadline) {
				t.Fatalf("wave %d never drained: windows were shed\n%s", w, out.String()[max(0, len(out.String())-400):])
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := out.String()
	stats := s[strings.LastIndex(s, "stats: "):]
	if !strings.Contains(stats, " spill=0)") || strings.Contains(stats, "spilled=0 ") {
		t.Fatalf("want windows spilled and none shed by the spill tier:\n%s", stats)
	}
	// Everything consumed and the run drained: segments are gone, what
	// is left is an empty segment's header and the offset sidecar.
	if n := dirBytes(t, spill); n > 256 {
		t.Fatalf("%d bytes left in the spill dir after a drained run", n)
	}
}
