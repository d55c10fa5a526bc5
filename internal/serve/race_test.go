package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/resilience"
)

// TestConcurrentReadsDuringChaos hammers the snapshot and the read
// handlers from many goroutines while the solver loop processes a
// stream with injected divergence faults (retries and rollbacks).
// Run with -race. Readers assert the two invariants that concurrency
// must not break: every observed snapshot is internally consistent,
// and the observed slice counter never goes backwards — a rollback is
// invisible to readers.
func TestConcurrentReadsDuringChaos(t *testing.T) {
	stream := testStream(t, 40, 31)
	var attempts atomic.Int64
	srv, err := New(Config{
		Dims: stream.Dims,
		Options: core.Options{
			Rank: 3, Seed: 1, TrackFit: true,
			Resilience: &resilience.Config{
				Policy: resilience.RetrySlice,
				FaultHook: func(f resilience.Fault) error {
					// Fail every 5th begin attempt once (retries pass),
					// keeping a steady mix of rollbacks and commits.
					if f.Stage == resilience.StageBegin && f.Attempt == 0 &&
						attempts.Add(1)%5 == 0 {
						return resilience.ErrDiverged
					}
					return nil
				},
			},
		},
		QueueCap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	srv.pipe.Start(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastT := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				if snap.T < lastT {
					t.Errorf("snapshot T went backwards: %d after %d", snap.T, lastT)
					return
				}
				lastT = snap.T
				if len(snap.Factors) != len(snap.Dims) || len(snap.S) != snap.Rank {
					t.Errorf("inconsistent snapshot: %d factors, |s|=%d, rank %d",
						len(snap.Factors), len(snap.S), snap.Rank)
					return
				}
				if _, err := snap.ReconstructAt([]int32{1, 1}); err != nil {
					t.Errorf("reconstruct: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/v1/factors", "/v1/stats", "/readyz", "/healthz", "/v1/reconstruct?coord=1,1"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", paths[i%len(paths)], nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
					t.Errorf("GET %s = %d", paths[i%len(paths)], rec.Code)
					return
				}
			}
		}()
	}

	for _, x := range stream.Slices {
		if err := srv.pipe.Offer(x); err != nil {
			t.Errorf("offer: %v", err)
			break
		}
		time.Sleep(time.Millisecond)
	}
	snap := srv.pipe.Drain(context.Background())
	close(stop)
	wg.Wait()

	if snap.Processed == 0 {
		t.Fatal("nothing processed under chaos")
	}
	st := srv.dec.ResilienceStats()
	if st.Rollbacks == 0 {
		t.Fatal("chaos injected no rollbacks; the test exercised nothing")
	}
	if got := srv.Snapshot().T; got != srv.dec.T() {
		t.Fatalf("final snapshot T = %d, decomposer t = %d", got, srv.dec.T())
	}
}
