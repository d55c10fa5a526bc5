package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestE2E is the end-to-end chaos smoke test of the daemon binary: it
// builds spstreamd, runs it with injected solver faults and stalls,
// and asserts the serving contract phase by phase —
//
//  1. healthy ingest: 200s, the model advances;
//  2. chaos (injected divergence): the circuit breaker opens, /readyz
//     goes 503, ingest sheds with 503 + Retry-After;
//  3. recovery: after the cooldown a probe slice closes the breaker
//     and /readyz returns 200;
//  4. overload (injected stalls + tiny queue): ingest answers 429 +
//     Retry-After, never hangs;
//  5. SIGTERM: the backlog drains, a checkpoint is written, exit 0;
//  6. restart: the restored daemon serves the same model (t, factors,
//     temporal row identical to the pre-shutdown state).
func TestE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "spstreamd")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	build.Env = append(os.Environ(), "CGO_ENABLED=1")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// The paper's baseline is an experiment (internal/baselines), not a
	// runtime option: the daemon refuses it at startup.
	if out, err := exec.Command(bin, "-dims", "10,8", "-alg", "baseline").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), "want optimized or spcp") {
		t.Fatalf("-alg baseline: err %v, output %q", err, out)
	}
	ckptDir := t.TempDir()

	// Begin-attempt timeline (window = 4 events, skip policy retries
	// each failed slice once, so one failed slice = 2 begins):
	//   1-2    phase 1's two healthy windows
	//   3-8    fail → three skipped slices → breaker opens (threshold 3)
	//   9      the half-open probe (succeeds, closes the breaker)
	//   10-40  stall 400ms → phase 4's overload
	args := []string{
		"-addr", "127.0.0.1:0",
		"-dims", "10,8", "-rank", "3", "-window", "4",
		"-queue", "1", "-shed-policy", "drop-newest",
		"-on-error", "skip",
		"-breaker-failures", "3", "-breaker-cooldown", "500ms",
		"-checkpoint-dir", ckptDir, "-every", "1", "-keep", "3",
		"-drain-timeout", "20s",
		"-chaos", "fail=3-8,stall=10-40:400ms",
	}
	base, cmd := startDaemon(t, bin, args)

	// Phase 1: healthy ingest commits two windows. One window per post,
	// retrying 429s (with queue=1 a shed can race the consumer's pop;
	// a shed window is not admitted, so it consumes no begin attempt
	// and the chaos timeline stays exact).
	for w := 0; w < 2; w++ {
		waitFor(t, "healthy window to be admitted", func() bool {
			code, _ := post(t, base, eventLines(4, 4*w))
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				t.Fatalf("healthy ingest = %d, want 200 or 429", code)
			}
			return code == http.StatusOK
		})
		want := w + 1
		waitFor(t, "model to advance", func() bool { return statT(t, base) >= want })
	}

	// Phase 2: the next three windows hit injected divergence; the
	// breaker opens and readiness drops. Posted one window per request
	// so each failure is delivered before the next admission.
	for i := 0; i < 3; i++ {
		code, _ := post(t, base, eventLines(4, 8+4*i))
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("chaos ingest %d = %d, want 200 or 503", i, code)
		}
	}
	waitFor(t, "breaker to open (readyz 503)", func() bool { return get(t, base, "/readyz") == http.StatusServiceUnavailable })

	code, hdr := post(t, base, eventLines(4, 20))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open ingest = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("breaker-open 503 without Retry-After")
	}

	// Phase 3: after the cooldown, one probe window closes the breaker.
	waitFor(t, "breaker probe to close the breaker", func() bool {
		if get(t, base, "/readyz") == http.StatusOK {
			return true
		}
		post(t, base, eventLines(4, 24))
		return false
	})

	// Phase 4: stalled solver + queue of 1 → sustained posting must
	// observe backpressure (429 + Retry-After), never a hang or a 500.
	saw429 := false
	waitFor(t, "a 429 under overload", func() bool {
		code, hdr := post(t, base, eventLines(4, 28))
		switch code {
		case http.StatusTooManyRequests:
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			saw429 = true
			return true
		case http.StatusOK, http.StatusServiceUnavailable:
			return false
		default:
			t.Fatalf("overload ingest = %d, want 200/429/503", code)
			return false
		}
	})
	if !saw429 {
		t.Fatal("never saw backpressure under overload")
	}

	// Quiesce: stop posting, wait for the queue to empty and t to hold
	// still for a full second (queue depth alone misses the in-flight
	// slice the consumer has already popped — and a stalled solve
	// outlasts one poll interval), then capture the model the restart
	// must reproduce.
	lastT, stableSince := -1, time.Now()
	waitFor(t, "queue to drain and t to stabilize", func() bool {
		st := stats(t, base)
		cur := int(st["t"].(float64))
		depth := int(st["queue_depth"].(float64))
		if cur != lastT || depth != 0 {
			lastT, stableSince = cur, time.Now()
			return false
		}
		return cur > 0 && time.Since(stableSince) > time.Second
	})
	preFactors := factors(t, base)

	// Breaker counters made it into the stats document.
	st := stats(t, base)
	brk := st["breaker"].(map[string]any)
	if int(brk["opens"].(float64)) < 1 || int(brk["probes"].(float64)) < 1 {
		t.Fatalf("breaker stats = %+v, want ≥1 open and ≥1 probe", brk)
	}
	if int(st["overload"].(map[string]any)["shed_breaker"].(float64)) < 1 {
		t.Fatal("no breaker sheds counted despite the 503 phase")
	}

	// Phase 5: SIGTERM → graceful drain, final checkpoint, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.spstrm"))
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint after graceful shutdown")
	}

	// Phase 6: restart restores the newest checkpoint; the served
	// model is identical (no chaos this time — clean flags).
	base2, cmd2 := startDaemon(t, bin, []string{
		"-addr", "127.0.0.1:0",
		"-dims", "10,8", "-rank", "3", "-window", "4",
		"-checkpoint-dir", ckptDir,
	})
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	postFactors := factors(t, base2)
	for _, key := range []string{"t", "s", "factors"} {
		if !reflect.DeepEqual(preFactors[key], postFactors[key]) {
			t.Fatalf("restored %q differs from the pre-shutdown model:\npre:  %v\npost: %v",
				key, preFactors[key], postFactors[key])
		}
	}
}

// startDaemon launches the binary and parses the "listening on" line.
func startDaemon(t *testing.T, bin string, args []string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, "listening on "); i >= 0 {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
			}
		}
	}()
	select {
	case a := <-addr:
		return "http://" + a, cmd
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never printed its listen address")
		return "", nil
	}
}

// eventLines renders n events with a rotating coordinate offset.
func eventLines(n, offset int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d %d 1.0\n", (offset+i)%10+1, (offset+i)%8+1)
	}
	return b.String()
}

func post(t *testing.T, base, body string) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/v1/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/ingest: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header
}

func get(t *testing.T, base, path string) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func getJSON(t *testing.T, base, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, buf.String())
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", path, err)
	}
	return m
}

func stats(t *testing.T, base string) map[string]any   { return getJSON(t, base, "/v1/stats") }
func factors(t *testing.T, base string) map[string]any { return getJSON(t, base, "/v1/factors") }

func statT(t *testing.T, base string) int {
	return int(stats(t, base)["t"].(float64))
}

// waitFor polls cond (≤15s) — state transitions are asserted by
// polling, not exact counts, so scheduling noise cannot flake the
// phases.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
