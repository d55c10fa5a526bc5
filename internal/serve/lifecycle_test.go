package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
)

// TestRunGracefulShutdown drives the full daemon lifecycle over real
// HTTP: serve, ingest, cancel (the SIGTERM path), drain, final
// checkpoint — then restart and verify the restored model resumes at
// the same slice counter with identical published factors.
func TestRunGracefulShutdown(t *testing.T) {
	ckptDir := t.TempDir()
	cfg := Config{
		Dims:          []int{8, 6},
		Options:       core.Options{Rank: 2, Seed: 1},
		WindowEvents:  4,
		QueueCap:      8,
		CheckpointDir: ckptDir,
		DrainTimeout:  10 * time.Second,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx, ln) }()

	// Ingest 5 windows (the last via flush) and wait for them to solve.
	var body strings.Builder
	for i := 0; i < 18; i++ {
		fmt.Fprintf(&body, "%d %d 1.0\n", i%8+1, i%6+1)
	}
	resp, err := http.Post(base+"/v1/ingest?flush=1", "text/plain", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().T < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d slices solved before deadline", srv.Snapshot().T)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v after graceful shutdown", err)
	}
	if got := len(resilience.ListCheckpoints(ckptDir)); got == 0 {
		t.Fatal("no final checkpoint written")
	}
	final := srv.Snapshot()

	// Restart: New restores the newest checkpoint.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored := srv2.Snapshot()
	if restored.T != final.T {
		t.Fatalf("restored T = %d, want %d", restored.T, final.T)
	}
	if !restored.Equal(final) {
		t.Fatal("restored snapshot differs from the pre-shutdown model")
	}
}

// TestStatsCountPipelineCheckpoints: the checkpoints a daemon's
// pipeline writes show in /v1/stats — CheckpointWrites equals the
// files on disk after six windows at one checkpoint a slice.
func TestStatsCountPipelineCheckpoints(t *testing.T) {
	ckptDir := t.TempDir()
	srv := newTestServer(t, func(c *Config) {
		c.QueueCap = 8
		c.CheckpointDir = ckptDir
		c.CheckpointEvery = 1
		c.CheckpointKeep = 100
	})
	srv.pipe.Start(context.Background())
	defer srv.pipe.Drain(context.Background())
	h := srv.Handler()
	if rec := doReq(h, "POST", "/v1/ingest", eventBody(24)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	var sr statsResponse
	for deadline := time.Now().Add(5 * time.Second); sr.T < 6; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d slices solved before deadline", sr.T)
		}
		sr = statsResponse{}
		if err := json.Unmarshal(doReq(h, "GET", "/v1/stats", "").Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
	}
	files := len(resilience.ListCheckpoints(ckptDir))
	if files != 6 {
		t.Fatalf("%d checkpoint files after 6 slices at every 1, want 6", files)
	}
	if got := sr.Resilience; got.CheckpointWrites != files || got.CheckpointErrors != 0 {
		t.Fatalf("stats report %d checkpoint writes (%d errors), want %d (0)", got.CheckpointWrites, got.CheckpointErrors, files)
	}
}

// TestCorruptCheckpointStartsFresh: a -checkpoint-dir whose only
// checkpoint fails its checksum is a fresh start, and a fresh start
// means exactly that — the daemon runs bit for bit like one given an
// empty directory, with nothing of the rejected file in its state.
func TestCorruptCheckpointStartsFresh(t *testing.T) {
	stream := testStream(t, 5, 24)
	opts := core.Options{Rank: 3, Seed: 1}
	dirty, empty := t.TempDir(), t.TempDir()

	// A checkpoint of a different run (another seed, three slices in),
	// with one payload bit flipped at rest.
	other, err := core.NewDecomposer(stream.Dims, core.Options{Rank: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range stream.Slices[:3] {
		if _, err := other.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := resilience.NewManager(dirty, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	path, err := mgr.Write(other.T(), other)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var srvs [2]*Server
	for i, dir := range []string{dirty, empty} {
		srv, err := New(Config{Dims: stream.Dims, Options: opts, CheckpointDir: dir, CheckpointEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	for i, x := range append([]*sptensor.Tensor{nil}, stream.Slices...) {
		if x != nil {
			for _, srv := range srvs {
				if _, err := srv.dec.ProcessSlice(x); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, want := srvs[0].Snapshot(), srvs[1].Snapshot()
		if !got.Equal(want) {
			t.Fatalf("after %d slices the corrupt-checkpoint daemon (t=%d) differs from the empty-directory one (t=%d)", i, got.T, want.T)
		}
	}
}
