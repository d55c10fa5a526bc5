package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spstream/internal/core"
)

// spcpServer is a daemon running guarded spCP-stream slices — the serve
// default resilience — on the shared test stream's dims.
func spcpServer(t *testing.T, dims []int) *Server {
	t.Helper()
	srv, err := New(Config{
		Dims:     dims,
		Options:  core.Options{Rank: 3, Seed: 1, Algorithm: core.SpCPStream},
		QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestPublishZeroAlloc: once the decomposer alternates between its two
// versions, the commit hook — publishing the committed version and
// releasing the snapshot it replaces — allocates nothing, slice after
// guarded slice (the swap before it is TestGuardedCommitZeroAlloc in
// core). The count is testing.AllocsPerRun's: the mallocs around every
// publication, summed, over the publications, rounded down.
func TestPublishZeroAlloc(t *testing.T) {
	stream := testStream(t, 24, 25)
	srv := spcpServer(t, stream.Dims)
	for _, x := range stream.Slices[:3] {
		if _, err := srv.dec.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	var mallocs, runs uint64
	srv.dec.SetCommitHook(func(res core.SliceResult) {
		runtime.ReadMemStats(&before)
		srv.publish(res.Fit)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		runs++
	})
	for _, x := range stream.Slices[3:] {
		if _, err := srv.dec.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	if runs != uint64(len(stream.Slices)-3) {
		t.Fatalf("%d publications for %d slices", runs, len(stream.Slices)-3)
	}
	if n := mallocs / runs; n != 0 {
		t.Errorf("publishing a committed slice allocates %d times, want 0", n)
	}
}

// TestHeldSnapshotSurvivesCommits: a snapshot a reader holds is its
// version pinned, not a copy, and stays bit for bit what it was while
// slices commit around it; once released, the next slice writes into
// that very version instead of allocating one.
func TestHeldSnapshotSurvivesCommits(t *testing.T) {
	stream := testStream(t, 8, 26)
	srv := spcpServer(t, stream.Dims)
	for _, x := range stream.Slices[:2] {
		if _, err := srv.dec.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	held := srv.Snapshot()
	copyOf, s := flatSnapshot(held), append([]float64(nil), held.S...)
	if held.ver != srv.dec.Committed() {
		t.Fatal("the published snapshot is not the committed version")
	}
	for _, x := range stream.Slices[2:5] {
		if _, err := srv.dec.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
		if srv.dec.Committed() == held.ver {
			t.Fatalf("slice %d committed into the held version", srv.dec.T()-1)
		}
	}
	if !sameFloats(flatSnapshot(held), copyOf) || !sameFloats(held.S, s) {
		t.Fatal("held snapshot changed while slices committed")
	}
	v := held.ver
	held.Release()
	if _, err := srv.dec.ProcessSlice(stream.Slices[5]); err != nil {
		t.Fatal(err)
	}
	if srv.dec.Committed() != v {
		t.Fatal("the slice after the release did not reuse the released version")
	}
}

// TestFactorsReadsMatchControl races /v1/factors and /v1/reconstruct
// readers against a running daemon (run it under -race -cpu 1,2,4):
// every factors body must equal, bit for bit, a control decomposer's
// factors at the body's t — a read is never torn by a slice writing the
// version it reads.
func TestFactorsReadsMatchControl(t *testing.T) {
	stream := testStream(t, 24, 27)
	srv := spcpServer(t, stream.Dims)
	ctl, err := core.NewDecomposer(stream.Dims, srv.cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{flatFactors(ctl)}
	for _, x := range stream.Slices {
		if _, err := ctl.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
		want = append(want, flatFactors(ctl))
	}

	handler := srv.Handler()
	srv.pipe.Start(context.Background())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var checked atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r%2 == 1 {
					rec := doReq(handler, "GET", "/v1/reconstruct?coord=2,3", "")
					if rec.Code != http.StatusOK {
						t.Errorf("reconstruct = %d: %s", rec.Code, rec.Body)
						return
					}
					continue
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/factors", nil))
				var resp factorsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("factors = %d (%v)", rec.Code, err)
					return
				}
				if err := sameBits(resp.Factors, want[resp.T]); err != nil {
					t.Errorf("factors body at t=%d: %v", resp.T, err)
					return
				}
				checked.Add(1)
			}
		}(r)
	}
	// One slice at a time, each offered only once the readers have read
	// twice since the last, so reads overlap every slice.
	for _, x := range stream.Slices {
		deadline := time.Now().Add(10 * time.Second)
		for n := checked.Load(); checked.Load() < n+2; time.Sleep(100 * time.Microsecond) {
			if t.Failed() || time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				t.Fatalf("readers stopped at t=%d", srv.dec.T())
			}
		}
		if err := srv.pipe.Offer(x); err != nil {
			t.Fatalf("offer: %v", err)
		}
	}
	snap := srv.pipe.Drain(context.Background())
	close(stop)
	wg.Wait()
	if snap.Processed != int64(len(stream.Slices)) || srv.dec.T() != len(stream.Slices) {
		t.Fatalf("processed %d of %d slices, t=%d", snap.Processed, len(stream.Slices), srv.dec.T())
	}
	if checked.Load() == 0 {
		t.Fatal("no factors body was checked")
	}
	final := srv.Snapshot()
	defer final.Release()
	var got [][][]float64
	for m := range final.Dims {
		got = append(got, matrixRows(final, m))
	}
	if err := sameBits(got, want[len(want)-1]); err != nil || final.T != len(stream.Slices) {
		t.Fatalf("final snapshot t=%d (want %d): %v", final.T, len(stream.Slices), err)
	}
}

// flatFactors copies d's factors, every mode's rows in order.
func flatFactors(d *core.Decomposer) []float64 {
	var out []float64
	for m := range d.Dims() {
		out = append(out, d.Factor(m).Data...)
	}
	return out
}

// sameBits compares a factors body with flatFactors' output bit for bit.
// flatSnapshot copies a snapshot's factors, every mode's rows in order.
func flatSnapshot(s *FactorSnapshot) []float64 {
	var out []float64
	for m := range s.Dims {
		out = append(out, s.Factor(m).Data...)
	}
	return out
}

// sameFloats reports bit-for-bit equality.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameBits(factors [][][]float64, want []float64) error {
	i := 0
	for m, rows := range factors {
		for r, row := range rows {
			for j, v := range row {
				if i >= len(want) || math.Float64bits(v) != math.Float64bits(want[i]) {
					return fmt.Errorf("mode %d element (%d,%d) differs", m, r, j)
				}
				i++
			}
		}
	}
	if i != len(want) {
		return fmt.Errorf("%d values, want %d", i, len(want))
	}
	return nil
}
