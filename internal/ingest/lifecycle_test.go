package ingest

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/parallel"
	"spstream/internal/resilience"
	"spstream/internal/resilience/faultinject"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
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

// sleepy takes 20 ms a slice, so that offers after Start overflow a
// one-slot queue into the WAL.
type sleepy struct{}

func (sleepy) ProcessSliceContext(ctx context.Context, _ *sptensor.Tensor) (core.SliceResult, error) {
	select {
	case <-time.After(20 * time.Millisecond):
		return core.SliceResult{}, nil
	case <-ctx.Done():
		return core.SliceResult{}, ctx.Err()
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

// TestPipelineLifecycle calls every sequence of up to three lifecycle
// calls — Start, Offer (a burst of three), Drain, kill — and then
// Drain, on a plain blocking pipeline, a checkpointed spill pipeline with two records
// recovered from an earlier life, and spill pipelines under the WAL's
// disk faults. Every call returns within 2 s, and after every Drain and
// kill no goroutine is left. Without a kill, the closing Drain returns
// the first Drain's snapshot, and the counters balance:
//
//	produced + spill_recovered == processed + failed + coalesced + shed + spill_pending
//
// A pipeline never started writes no checkpoint, and its WAL records
// stay on disk: the next life recovers exactly spill_pending of them.
func TestPipelineLifecycle(t *testing.T) {
	// The worker pool is process-wide and starts on first use: start it
	// before any goroutine is counted.
	parallel.Default()
	setups := []struct {
		name        string
		plan        *faultinject.FSFaultPlan // nil: the real filesystem
		spill, ckpt bool
	}{
		{name: "block"},
		{name: "spill", spill: true, ckpt: true},
		{name: "torn", spill: true, plan: &faultinject.FSFaultPlan{ShortWriteAt: map[uint64]int{3: 3}, FailTruncate: true, FailSyncAt: map[uint64]bool{6: true}}},
		{name: "enospc", spill: true, plan: &faultinject.FSFaultPlan{ENOSPCFromWrite: 3}},
	}
	for _, su := range setups {
		for _, seq := range lifecycleSeqs([]string{"Start", "Offer", "Drain", "kill"}, 3) {
			t.Run(su.name+"/"+strings.Join(seq, ","), func(t *testing.T) {
				base := runtime.NumGoroutine()
				dir, ckptDir := t.TempDir(), t.TempDir()
				life := func() (*Pipeline, error) {
					cfg := Config{QueueCap: 16} // three bursts never block
					var proc Processor = nopProcessor{}
					if su.spill {
						cfg.QueueCap, cfg.Spill = 1, &SpillConfig{Dir: dir}
						if su.plan != nil {
							cfg.Spill.FS = faultinject.NewFaultFS(nil, *su.plan)
							proc = sleepy{}
						}
					}
					if su.ckpt {
						mgr, err := resilience.NewManager(ckptDir, 1, 3)
						if err != nil {
							t.Fatal(err)
						}
						dec, err := core.NewDecomposer([]int{4, 4}, core.Options{Rank: 2, Seed: 1,
							Resilience: &resilience.Config{Checkpoint: mgr}})
						if err != nil {
							t.Fatal(err)
						}
						proc = dec
					}
					return New(proc, cfg)
				}
				if su.ckpt {
					// An earlier life leaves two spilled records: one
					// offer fills the queue, the next two spill.
					p, err := life()
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 3; i++ {
						p.Offer(testSlice(float64(i)))
					}
					var s trace.OverloadSnapshot
					within(t, "the earlier life's Drain", func() { s = p.Drain(context.Background()) })
					if s.SpillPending() != 2 {
						t.Fatalf("earlier life left %d records pending, want 2", s.SpillPending())
					}
				}
				p, err := life()
				if err != nil {
					t.Fatal(err)
				}
				var first *trace.OverloadSnapshot
				started, killed := false, false
				for _, op := range seq {
					within(t, op, func() {
						switch op {
						case "Start":
							p.Start(context.Background())
							started = true
						case "Offer": // a burst that overflows a one-slot queue
							for i := 0; i < 3; i++ {
								p.Offer(testSlice(1))
							}
						case "Drain":
							if s := p.Drain(context.Background()); first == nil {
								first = &s
							}
						case "kill":
							p.kill()
							killed = true
						}
					})
					if op == "Drain" || op == "kill" {
						settles(t, base)
					}
				}
				var final trace.OverloadSnapshot
				within(t, "the closing Drain", func() { final = p.Drain(context.Background()) })
				settles(t, base)
				if killed {
					return
				}
				if first != nil && *first != final {
					t.Fatalf("second Drain returned %+v, first %+v", final, *first)
				}
				if left, right := final.Produced+final.SpillRecovered, final.Processed+final.Failed+final.Coalesced+final.Shed()+final.SpillPending(); left != right {
					t.Fatalf("accounting broken after drain: %s", final)
				}
				if started || !su.ckpt {
					return
				}
				if cks := resilience.ListCheckpoints(ckptDir); len(cks) != 0 {
					t.Fatalf("a pipeline never started wrote checkpoints %v", cks)
				}
				next, err := life()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := next.Stats().SpillRecovered, final.SpillPending(); got != want {
					t.Fatalf("next life recovered %d records, want the %d left pending", got, want)
				}
				within(t, "the next life's Drain", func() { next.Drain(context.Background()) })
			})
		}
	}
}

// TestPipelineConcurrentLifecycle: Start and two Drains from three
// goroutines at once, on a spill pipeline with a backlog. Every call
// returns, both Drains return the same snapshot, the counters balance,
// and no goroutine is left.
func TestPipelineConcurrentLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	p, err := New(sleepy{}, Config{QueueCap: 1, Spill: &SpillConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Offer(testSlice(float64(i)))
	}
	var wg sync.WaitGroup
	var snaps [2]trace.OverloadSnapshot
	wg.Add(3)
	go func() {
		defer wg.Done()
		p.Start(context.Background())
	}()
	for i := range snaps {
		go func() {
			defer wg.Done()
			snaps[i] = p.Drain(context.Background())
		}()
	}
	within(t, "Start and two Drains", wg.Wait)
	settles(t, base)
	if snaps[0] != snaps[1] {
		t.Fatalf("concurrent Drains returned %s and %s", snaps[0], snaps[1])
	}
	s := snaps[0]
	if s.Produced+s.SpillRecovered != s.Processed+s.Failed+s.Coalesced+s.Shed()+s.SpillPending() {
		t.Fatalf("accounting broken after drain: %s", s)
	}
}

// TestPipelineDrainAfterEmergencyStop: Start's context ends while a
// refiller still holds spilled records for a full queue. Drain must not
// wait on that refiller; it stops it, and the counters balance with the
// records left pending on disk. (Before the one stop path, Drain took
// the consumer's exit for a finished drain and blocked here.)
func TestPipelineDrainAfterEmergencyStop(t *testing.T) {
	base := runtime.NumGoroutine()
	p, err := New(sleepy{}, Config{QueueCap: 1, Spill: &SpillConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	for i := 0; i < 5; i++ {
		p.Offer(testSlice(float64(i)))
	}
	cancel()
	var s trace.OverloadSnapshot
	within(t, "Drain after the emergency stop", func() { s = p.Drain(context.Background()) })
	settles(t, base)
	if s.SpillPending() == 0 || s.Produced+s.SpillRecovered != s.Processed+s.Failed+s.Coalesced+s.Shed()+s.SpillPending() {
		t.Fatalf("want the spilled records pending and the counters balanced: %s", s)
	}
}
