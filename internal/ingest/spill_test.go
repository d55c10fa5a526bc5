package ingest

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/ingest/wal"
	"spstream/internal/resilience"
	"spstream/internal/resilience/faultinject"
	"spstream/internal/sptensor"
)

// checkSpillAccounting asserts the EXTENDED exactly-once invariant the
// Spill policy guarantees:
//
//	produced + spill_recovered ==
//	    processed + failed + coalesced + shed + spill_pending
func checkSpillAccounting(t *testing.T, p *Pipeline) {
	t.Helper()
	s := p.Stats()
	left := s.Produced + s.SpillRecovered
	right := s.Processed + s.Failed + s.Coalesced + s.Shed() + s.SpillPending()
	if left != right {
		t.Fatalf("spill accounting broken: produced=%d recovered=%d != processed=%d failed=%d coalesced=%d shed=%d pending=%d",
			s.Produced, s.SpillRecovered, s.Processed, s.Failed, s.Coalesced, s.Shed(), s.SpillPending())
	}
}

// TestSpillLosesNothingUnderOverload: a producer far outpacing the
// solver with a tiny queue loses NOTHING under Spill — the overflow
// rides the disk and the graceful drain flushes it all back through
// the solver. Memory stays bounded at the queue cap throughout.
func TestSpillLosesNothingUnderOverload(t *testing.T) {
	s := overloadStream(t, 60, 7)
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Algorithm: core.Optimized, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := &throttled{Decomposer: dec, delay: 2 * time.Millisecond}
	const cap = 4
	p, err := New(th, Config{
		QueueCap:     cap,
		Policy:       Spill,
		Spill:        &SpillConfig{Dir: t.TempDir(), SegmentBytes: 32 << 10},
		DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, x := range s.Slices {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Drain(context.Background())
	checkSpillAccounting(t, p)
	if snap.Spilled == 0 {
		t.Fatal("nothing spilled under heavy overload with cap 4")
	}
	if snap.Processed != int64(len(s.Slices)) {
		t.Fatalf("processed %d of %d — spill policy lost data (shed=%d pending=%d)",
			snap.Processed, len(s.Slices), snap.Shed(), snap.SpillPending())
	}
	if snap.QueueHighWater > cap {
		t.Fatalf("queue high-water %d exceeded cap %d", snap.QueueHighWater, cap)
	}
	if snap.SpillPending() != 0 {
		t.Fatalf("pending = %d after graceful drain, want 0", snap.SpillPending())
	}
}

// orderRecorder records the order slices reach the processor.
type orderRecorder struct {
	mu    sync.Mutex
	seen  []int32
	block chan struct{} // when non-nil, the first call waits on it
	once  sync.Once
}

func (r *orderRecorder) ProcessSliceContext(ctx context.Context, x *sptensor.Tensor) (core.SliceResult, error) {
	if r.block != nil {
		r.once.Do(func() {
			select {
			case <-r.block:
			case <-ctx.Done():
			}
		})
		if ctx.Err() != nil {
			return core.SliceResult{}, ctx.Err()
		}
	}
	r.mu.Lock()
	// Slice i carries exactly one nonzero whose first coordinate is i.
	r.seen = append(r.seen, x.Inds[0][0])
	r.mu.Unlock()
	return core.SliceResult{}, nil
}

// markerSlice builds a one-nonzero slice whose first coordinate is i.
func markerSlice(t *testing.T, i int) *sptensor.Tensor {
	t.Helper()
	x := sptensor.New(1000, 2)
	x.Append([]int32{int32(i), 0}, 1.0)
	return x
}

// TestSpillPreservesFIFO: slices that detour through the disk must
// still reach the solver in production order — the sticky-spill rule.
func TestSpillPreservesFIFO(t *testing.T) {
	rec := &orderRecorder{block: make(chan struct{})}
	p, err := New(rec, Config{
		QueueCap:     2,
		Policy:       Spill,
		Spill:        &SpillConfig{Dir: t.TempDir()},
		DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	const n = 120
	for i := 0; i < n; i++ {
		if err := p.Offer(markerSlice(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(rec.block) // release the consumer; the backlog drains FIFO
	snap := p.Drain(context.Background())
	checkSpillAccounting(t, p)
	if snap.Processed != n {
		t.Fatalf("processed %d of %d", snap.Processed, n)
	}
	if snap.Spilled == 0 {
		t.Fatal("test never exercised the spill tier")
	}
	for i, got := range rec.seen {
		if got != int32(i) {
			t.Fatalf("slice %d processed out of order (marker %d): spill broke FIFO", i, got)
		}
	}
}

// TestSpillBacklogBoundedMemory: the durable backlog grows ≥100× the
// queue capacity while the in-memory queue never exceeds its cap —
// the out-of-core guarantee (the process holds QueueCap windows, the
// disk holds the rest).
func TestSpillBacklogBoundedMemory(t *testing.T) {
	rec := &orderRecorder{block: make(chan struct{})}
	const cap = 2
	p, err := New(rec, Config{
		QueueCap:     cap,
		Policy:       Spill,
		Spill:        &SpillConfig{Dir: t.TempDir(), SegmentBytes: 16 << 10},
		DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	const n = 100*cap + 2*cap + 1
	for i := 0; i < n; i++ {
		if err := p.Offer(markerSlice(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.SpillPending(); got < 100*cap {
		t.Fatalf("spill backlog = %d, want ≥ %d (100× queue capacity)", got, 100*cap)
	}
	if hw := p.Stats().QueueHighWater; hw > cap {
		t.Fatalf("queue high-water %d exceeded cap %d while backlog grew", hw, cap)
	}
	if p.SpillDiskBytes() == 0 {
		t.Fatal("backlog claims to be on disk but DiskBytes = 0")
	}
	close(rec.block)
	snap := p.Drain(context.Background())
	checkSpillAccounting(t, p)
	if snap.Processed != n || snap.SpillPending() != 0 {
		t.Fatalf("after drain: processed=%d pending=%d, want %d/0", snap.Processed, snap.SpillPending(), n)
	}
}

// TestSpillCrashReplayBitIdentical is the crash-safety core: SIGKILL
// (simulated by Pipeline.Kill — no WAL flush, no offset commit) with a
// non-empty spilled backlog, then restart from the newest checkpoint
// and replay. The recovered run must converge to factors BIT-IDENTICAL
// to an uncrashed run over the same stream.
func TestSpillCrashReplayBitIdentical(t *testing.T) {
	s := overloadStream(t, 24, 13)
	opts := core.Options{Rank: 4, Algorithm: core.Optimized, Seed: 1}

	// Control: the uncrashed run.
	control, err := core.NewDecomposer(s.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices {
		if _, err := control.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}

	// Crashed run: the pipeline checkpoints every slice through the
	// manager the decomposer carries (offset committed first — its own
	// protocol), slow consumer, tiny queue, kill while the backlog is
	// non-empty.
	ckptDir, spillDir := t.TempDir(), t.TempDir()
	mgr, err := resilience.NewManager(ckptDir, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resilience = &resilience.Config{Checkpoint: mgr}
	dec, err := core.NewDecomposer(s.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	th := &throttled{Decomposer: dec, delay: 5 * time.Millisecond}
	p, err := New(th, Config{
		QueueCap: 1,
		// FsyncInterval 0: every spill is durable before Offer returns,
		// so the kill cannot lose admitted slices.
		Spill:   &SpillConfig{Dir: spillDir},
		OnError: func(err error) { t.Errorf("durability: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, x := range s.Slices {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until ≥2 slices are committed (so every unprocessed slice is
	// WAL-resident, not direct-queued) and a backlog exists, then kill.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := p.Stats()
		if snap.Processed >= 2 && p.SpillPending() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached kill precondition: %+v pending=%d", snap, p.SpillPending())
		}
		time.Sleep(time.Millisecond)
	}
	p.Kill()
	killT := dec.T()
	if killT >= len(s.Slices) {
		t.Fatalf("kill happened after the whole stream (t=%d); no backlog to replay", killT)
	}

	// Restart: restore the newest checkpoint; the pipeline replays the
	// backlog from the offset committed for the restored T().
	dec2, err := core.NewDecomposer(s.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resilience.RestoreNewest(ckptDir, dec2.RestoreState); err != nil {
		t.Fatal(err)
	}
	restoredT := dec2.T()
	p2, err := New(dec2, Config{
		QueueCap:     1,
		Policy:       Spill,
		Spill:        &SpillConfig{Dir: spillDir},
		DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Stats().SpillRecovered == 0 {
		t.Fatal("restart recovered an empty backlog; the kill test proved nothing")
	}
	p2.Start(context.Background())
	snap := p2.Drain(context.Background())
	checkSpillAccounting(t, p2)
	if snap.SpillPending() != 0 {
		t.Fatalf("pending = %d after replay drain", snap.SpillPending())
	}
	if dec2.T() != len(s.Slices) {
		t.Fatalf("recovered run ended at t=%d, want %d (restored %d, killed at %d)",
			dec2.T(), len(s.Slices), restoredT, killT)
	}
	for n := 0; n < len(s.Dims); n++ {
		want, got := control.Factor(n), dec2.Factor(n)
		if !reflect.DeepEqual(want.Data, got.Data) {
			t.Fatalf("mode-%d factor differs after crash replay: recovery is not bit-identical", n)
		}
	}
}

// TestSpillDrainDeadlineKeepsBacklogDurable: when the drain deadline
// expires with spilled slices still queued, they are returned to the
// durable backlog (replayable next run), not shed — only direct-queued
// slices are lost to a deadline, and the invariant stays exact.
func TestSpillDrainDeadlineKeepsBacklogDurable(t *testing.T) {
	rec := &orderRecorder{block: make(chan struct{})} // consumer never finishes slice 1
	p, err := New(rec, Config{
		QueueCap:     2,
		Policy:       Spill,
		Spill:        &SpillConfig{Dir: t.TempDir()},
		DrainTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	const n = 20
	for i := 0; i < n; i++ {
		if err := p.Offer(markerSlice(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Drain(context.Background())
	close(rec.block)
	checkSpillAccounting(t, p)
	if snap.SpillPending() == 0 {
		t.Fatal("deadline drain left no durable backlog; spilled slices were lost")
	}
	if snap.Processed != 0 {
		t.Fatalf("processed = %d with a blocked consumer", snap.Processed)
	}
}

// TestSpillExactAccountingENOSPC: concurrent producers hammer a
// Spill-policy pipeline whose disk hits ENOSPC mid-spill. Every slice
// must land in exactly one bucket — processed, shed (ENOSPC), or
// nothing pending — and the extended invariant must hold to the unit
// after a graceful drain. Run under -race: Offer races the refiller,
// the consumer, and the disk fault.
func TestSpillExactAccountingENOSPC(t *testing.T) {
	rec := &orderRecorder{block: make(chan struct{})}
	// The WAL's open costs 2 fs ops (header write + sync); each durable
	// spill append costs 2 more. Cliff after 10 spilled records.
	ffs := faultinject.NewFaultFS(nil, faultinject.FSFaultPlan{ENOSPCFromWrite: 23})
	p, err := New(rec, Config{
		QueueCap:     2,
		Policy:       Spill,
		Spill:        &SpillConfig{Dir: t.TempDir(), FS: ffs},
		DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())

	const producers, perProducer = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				err := p.Offer(markerSlice(t, g*perProducer+i))
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("producer %d: unexpected Offer error: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(rec.block)
	snap := p.Drain(context.Background())
	checkSpillAccounting(t, p)

	if snap.Produced != producers*perProducer {
		t.Fatalf("produced = %d, want %d", snap.Produced, producers*perProducer)
	}
	if snap.Spilled == 0 {
		t.Fatal("no slice ever reached the spill tier before the cliff")
	}
	if snap.ShedSpill == 0 {
		t.Fatal("ENOSPC never shed a slice; the fault plan missed the workload")
	}
	if snap.SpillPending() != 0 {
		t.Fatalf("pending = %d after graceful drain, want 0", snap.SpillPending())
	}
	// Exact partition: what wasn't shed was processed.
	if snap.Processed+snap.Shed() != producers*perProducer {
		t.Fatalf("processed %d + shed %d != produced %d",
			snap.Processed, snap.Shed(), producers*perProducer)
	}
}

// slowRecorder is a processor with a slice counter and a fixed solve
// time: slow enough that a burst overflows a 2-deep queue.
type slowRecorder struct{ t atomic.Int64 }

func (r *slowRecorder) ProcessSliceContext(context.Context, *sptensor.Tensor) (core.SliceResult, error) {
	time.Sleep(200 * time.Microsecond)
	return core.SliceResult{T: int(r.t.Add(1))}, nil
}
func (r *slowRecorder) T() int { return int(r.t.Load()) }

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSpillWavesReclaimDiskWithoutCheckpoints: a run with no checkpoint
// manager has nobody but the pipeline to commit WAL offsets, and the WAL
// collects segments only at a commit. Thirty overload waves, each
// drained to an empty backlog before the next, must leave the disk
// footprint where one wave leaves it — and under a MaxBytes cap that a
// single wave fits, no wave may ever shed. (At the parent commit the
// consumed records stayed on disk: the cap was hit in wave 3 and every
// later overflow was shed.)
func TestSpillWavesReclaimDiskWithoutCheckpoints(t *testing.T) {
	for name, segBytes := range map[string]int64{"one-segment": 1 << 20, "small-segments": 256} {
		t.Run(name, func(t *testing.T) {
			rec := &slowRecorder{}
			p, err := New(rec, Config{
				QueueCap: 2,
				Policy:   Spill,
				Spill:    &SpillConfig{Dir: t.TempDir(), MaxBytes: 4 << 10, SegmentBytes: segBytes},
				OnError:  func(err error) { t.Errorf("pipeline: %v", err) },
			})
			if err != nil {
				t.Fatal(err)
			}
			p.Start(context.Background())
			const waves, perWave = 30, 20 // ≈ 1.5 KiB of records a wave
			for w := 0; w < waves; w++ {
				for i := 0; i < perWave; i++ {
					if err := p.Offer(markerSlice(t, i)); err != nil {
						t.Fatalf("wave %d: %v", w, err)
					}
				}
				waitFor(t, "the wave to drain", func() bool {
					return p.Stats().Processed == int64((w+1)*perWave) && p.SpillPending() == 0
				})
			}
			// Fully consumed means fully collected: an empty segment's
			// header is all that may remain, however many waves ran.
			waitFor(t, "the consumed backlog to leave the disk", func() bool { return p.SpillDiskBytes() <= 64 })
			snap := p.Drain(context.Background())
			checkSpillAccounting(t, p)
			if snap.Spilled < waves || snap.ShedSpill != 0 {
				t.Fatalf("spilled=%d shed_spill=%d: want every wave spilling and none shed", snap.Spilled, snap.ShedSpill)
			}
		})
	}
}

// commitFS records the slice counter at every offset commit (each one
// publishes the sidecar with a rename).
type commitFS struct {
	wal.FS
	t     func() int
	marks []int
}

func (f *commitFS) Rename(o, n string) error {
	f.marks = append(f.marks, f.t())
	return f.FS.Rename(o, n)
}

// TestCheckpointedRunMarksOnlyDueCheckpoints pins where the offset
// commits of a checkpointed run land: one immediately before every due
// checkpoint and one at drain — each costs an fsync, and the reclaim
// cadence of the run without a manager must not leak into this one.
func TestCheckpointedRunMarksOnlyDueCheckpoints(t *testing.T) {
	s := overloadStream(t, 23, 5)
	mgr, err := resilience.NewManager(t.TempDir(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewDecomposer(s.Dims, core.Options{Rank: 4, Seed: 1, Resilience: &resilience.Config{Checkpoint: mgr}})
	if err != nil {
		t.Fatal(err)
	}
	fs := &commitFS{FS: wal.OSFS(), t: dec.T}
	p, err := New(&throttled{Decomposer: dec, delay: time.Millisecond}, Config{
		QueueCap: 1,
		Spill:    &SpillConfig{Dir: t.TempDir(), SegmentBytes: 8 << 10, FS: fs},
		OnError:  func(err error) { t.Errorf("pipeline: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	for _, x := range s.Slices {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	if snap := p.Drain(context.Background()); snap.Processed != 23 || snap.Spilled == 0 {
		t.Fatalf("processed=%d spilled=%d, want 23 and some", snap.Processed, snap.Spilled)
	}
	if want := []int{5, 10, 15, 20, 23}; !reflect.DeepEqual(fs.marks, want) {
		t.Fatalf("offset commits at t=%v, want %v", fs.marks, want)
	}
	if got, want := mgr.Checkpoints(), []string{mgr.Path(23), mgr.Path(20)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoints %v, want %v", got, want)
	}
}

// TestSpillDirAndPolicyAreOneSetting: the rule every front end relies
// on lives here — a spill directory implies the Spill policy, and the
// Spill policy without a directory is refused.
func TestSpillDirAndPolicyAreOneSetting(t *testing.T) {
	rec := &slowRecorder{}
	for _, cfg := range []Config{{Policy: Spill}, {Policy: Spill, Spill: &SpillConfig{MaxBytes: 1 << 20}}} {
		if _, err := New(rec, cfg); err == nil {
			t.Fatalf("Spill policy without a directory accepted: %+v", cfg)
		}
	}
	if p, err := New(rec, Config{Policy: DropNewest, Spill: &SpillConfig{MaxBytes: 1 << 20}}); err != nil || p.sp != nil {
		t.Fatalf("a SpillConfig without Dir must be ignored: sp=%v err=%v", p.sp, err)
	}
	p, err := New(rec, Config{Policy: DropNewest, Spill: &SpillConfig{Dir: t.TempDir()}})
	if err != nil || p.sp == nil || p.cfg.Policy != Spill {
		t.Fatalf("a spill directory must arm the Spill policy: err=%v", err)
	}
	p.Kill()
}
