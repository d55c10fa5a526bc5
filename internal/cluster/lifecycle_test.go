package cluster

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// within runs f under the lifecycle table's 2 s deadline per call.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked after 2s", what)
	}
}

// settles polls until the goroutine count is back at base.
func settles(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), base)
		}
	}
}

// lifecycleSeqs returns every sequence of one to n calls from ops.
func lifecycleSeqs(ops []string, n int) [][]string {
	var out, level [][]string
	level = [][]string{nil}
	for i := 0; i < n; i++ {
		var next [][]string
		for _, seq := range level {
			for _, op := range ops {
				next = append(next, append(append([]string(nil), seq...), op))
			}
		}
		out, level = append(out, next...), next
	}
	return out
}

// TestGatewayLifecycle calls every sequence of up to three of Start,
// Shutdown, Run on a live listener (a read over HTTP, then cancel) and
// Run on a closed listener, which must return Serve's error, and then
// Shutdown. Every call returns within 2 s, and after every call but
// Start no sender or prober is left: a Serve failure drains too.
func TestGatewayLifecycle(t *testing.T) {
	r, _ := NewRouter([]int{12, 9}, 2)
	fakes := []*fakeShard{newFakeShard(t, 0, 2, r, 2), newFakeShard(t, 1, 2, r, 2)}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for _, seq := range lifecycleSeqs([]string{"Start", "Shutdown", "Run", "RunClosed"}, 3) {
		t.Run(strings.Join(seq, ","), func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := newTestGateway(t, r, fakes, nil)
			for _, op := range seq {
				within(t, op, func() {
					switch op {
					case "Start":
						g.Start()
					case "Shutdown":
						g.Shutdown()
					case "Run", "RunClosed":
						ln, err := net.Listen("tcp", "127.0.0.1:0")
						if err != nil {
							t.Error(err)
							return
						}
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						runErr := make(chan error, 1)
						if op == "RunClosed" {
							ln.Close()
						}
						go func() { runErr <- g.Run(ctx, ln) }()
						if op == "Run" {
							resp, err := client.Get("http://" + ln.Addr().String() + "/healthz")
							if err != nil {
								t.Error(err)
							} else {
								resp.Body.Close()
							}
							cancel()
						}
						if err := <-runErr; (err != nil) != (op == "RunClosed") {
							t.Errorf("%s returned %v", op, err)
						}
					}
				})
				if op != "Start" {
					settles(t, base) // each of the others stops the gateway
				}
			}
			within(t, "the closing Shutdown", g.Shutdown)
			settles(t, base)
		})
	}
}
