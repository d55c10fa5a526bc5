package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
)

// lives is one stream's durable directories across simulated process
// lives: each life is a fresh decomposer carrying a fresh checkpoint
// manager over the same directory (every slice, keep 2), restored from
// the newest checkpoint there, under a pipeline over the same WAL — what
// a restarted daemon assembles.
type lives struct {
	t                 *testing.T
	s                 *sptensor.Stream
	opts              core.Options
	ckptDir, spillDir string
	control           *core.Decomposer
}

func newLives(t *testing.T, slices int) *lives {
	t.Helper()
	l := &lives{
		t:        t,
		s:        overloadStream(t, slices, 17),
		opts:     core.Options{Rank: 4, Algorithm: core.Optimized, Seed: 1},
		ckptDir:  t.TempDir(),
		spillDir: t.TempDir(),
	}
	control, err := core.NewDecomposer(l.s.Dims, l.opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range l.s.Slices {
		if _, err := control.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	l.control = control
	return l
}

// life starts one process life. wrap, when non-nil, puts a processor
// around the decomposer.
func (l *lives) life(queueCap int, wrap func(*core.Decomposer) Processor) (*core.Decomposer, *Pipeline, *resilience.Manager) {
	t := l.t
	t.Helper()
	mgr, err := resilience.NewManager(l.ckptDir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := l.opts
	opts.Resilience = &resilience.Config{Checkpoint: mgr}
	dec, err := core.NewDecomposer(l.s.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.RestoreLatest(dec.RestoreState); err != nil && !errors.Is(err, resilience.ErrNoCheckpoint) {
		t.Fatal(err)
	}
	var proc Processor = dec
	if wrap != nil {
		proc = wrap(dec)
	}
	p, err := New(proc, Config{
		QueueCap:     queueCap,
		Spill:        &SpillConfig{Dir: l.spillDir},
		DrainTimeout: time.Minute,
		OnError:      func(err error) { t.Errorf("pipeline: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return dec, p, mgr
}

// spillThenDrain is a life that offers xs before its consumer starts,
// behind a one-slot queue — the first slice is queued, every later one
// spills — and then drains.
func (l *lives) spillThenDrain(xs []*sptensor.Tensor) *core.Decomposer {
	t := l.t
	t.Helper()
	dec, p, _ := l.life(1, nil)
	for _, x := range xs {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := p.Stats().Spilled, int64(len(xs)-1); got != want {
		t.Fatalf("spilled %d slices, want %d", got, want)
	}
	p.Start(context.Background())
	p.Drain(context.Background())
	checkSpillAccounting(t, p)
	return dec
}

// waitCheckpoint waits until the manager has written checkpoint t.
func waitCheckpoint(t *testing.T, mgr *resilience.Manager, at int) {
	t.Helper()
	waitFor(t, "the checkpoint", func() bool {
		_, err := os.Stat(mgr.Path(at))
		return err == nil
	})
}

// finish is the last life: it restores, recovers want records, drains
// and must end bit-equal to the uncrashed control.
func (l *lives) finish(wantRecovered int64) {
	t := l.t
	t.Helper()
	dec, p, _ := l.life(8, nil)
	if got := p.Stats().SpillRecovered; got != wantRecovered {
		t.Fatalf("restart recovered %d WAL records, want %d (restored t=%d)", got, wantRecovered, dec.T())
	}
	p.Start(context.Background())
	p.Drain(context.Background())
	checkSpillAccounting(t, p)
	if dec.T() != l.control.T() {
		t.Fatalf("run ended at t=%d, want %d", dec.T(), l.control.T())
	}
	for n := range l.s.Dims {
		if !reflect.DeepEqual(l.control.Factor(n).Data, dec.Factor(n).Data) {
			t.Fatalf("mode-%d factor differs from the uncrashed run", n)
		}
	}
}

// TestSpillRestartReplaysNothingTwice: a slice folded into a restored
// checkpoint must never be applied again, whatever the run that wrote
// the checkpoint read from the WAL and whatever else sits in the WAL
// directory. Life 1 spills 19 slices and drains; life 2 restores t=20,
// checkpoints 4 directly queued slices — it reads nothing from the WAL —
// and is killed; life 3 restores t=24 and must recover nothing. The
// second row also leaves a garbage "offsets" file in the WAL directory
// before each restart (the name of the replay sidecar the WAL once
// kept).
func TestSpillRestartReplaysNothingTwice(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(dir string) error
	}{
		{"three lives", func(string) error { return nil }},
		{"offsets file corrupt", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "offsets"), []byte("garbage"), 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLives(t, 24)
			if got := l.spillThenDrain(l.s.Slices[:20]).T(); got != 20 {
				t.Fatalf("life 1 ended at t=%d, want 20", got)
			}

			if err := tc.tamper(l.spillDir); err != nil {
				t.Fatal(err)
			}
			dec, p, mgr := l.life(8, nil)
			if got := p.Stats().SpillRecovered; dec.T() != 20 || got != 0 {
				t.Fatalf("life 2 restored t=%d and recovered %d records, want t=20 and 0", dec.T(), got)
			}
			p.Start(context.Background())
			for _, x := range l.s.Slices[20:] {
				if err := p.Offer(x); err != nil {
					t.Fatal(err)
				}
			}
			waitCheckpoint(t, mgr, 24)
			p.kill()
			if spilled := p.Stats().Spilled; spilled != 0 {
				t.Fatalf("life 2 spilled %d slices, want every slice queued directly", spilled)
			}

			if err := tc.tamper(l.spillDir); err != nil {
				t.Fatal(err)
			}
			l.finish(0)
		})
	}
}

// stopAfter solves n slices, then waits on the next one for the
// emergency stop: a life killed mid-solve with a known backlog behind it.
type stopAfter struct {
	*core.Decomposer
	n int
}

func (s *stopAfter) ProcessSliceContext(ctx context.Context, x *sptensor.Tensor) (core.SliceResult, error) {
	if s.n == 0 {
		<-ctx.Done()
		return core.SliceResult{}, ctx.Err()
	}
	s.n--
	return s.Decomposer.ProcessSliceContext(ctx, x)
}

// TestSpillRestartAfterWALLost: the WAL directory is lost while the
// checkpoints survive. The next life's spills must be numbered past the
// restored cursor, so that when it is killed with a backlog, the restart
// replays that backlog instead of skipping it as already applied.
func TestSpillRestartAfterWALLost(t *testing.T) {
	l := newLives(t, 24)
	l.spillThenDrain(l.s.Slices[:20])
	if err := os.RemoveAll(l.spillDir); err != nil {
		t.Fatal(err)
	}

	_, p, mgr := l.life(1, func(d *core.Decomposer) Processor { return &stopAfter{Decomposer: d, n: 1} })
	for _, x := range l.s.Slices[20:] {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().Spilled; got != 3 {
		t.Fatalf("spilled %d slices, want 3", got)
	}
	p.Start(context.Background())
	waitCheckpoint(t, mgr, 21)
	p.kill()

	l.finish(3)
}

// diskProbe reads the WAL's footprint as each slice reaches the solver,
// after the previous slice's checkpoint and release.
type diskProbe struct {
	*core.Decomposer
	p    *Pipeline
	disk []int64
}

func (d *diskProbe) ProcessSliceContext(ctx context.Context, x *sptensor.Tensor) (core.SliceResult, error) {
	d.disk = append(d.disk, d.p.SpillDiskBytes())
	return d.Decomposer.ProcessSliceContext(ctx, x)
}

// TestRestoredRunKeepsSegmentsUntilOwnCheckpoints: a restart may fall
// back to any checkpoint the manager keeps, and a restarted run does not
// know the cursors of those an earlier life wrote, so it releases no WAL
// segment until every kept checkpoint (two here) is one of its own.
func TestRestoredRunKeepsSegmentsUntilOwnCheckpoints(t *testing.T) {
	l := newLives(t, 23)
	l.spillThenDrain(l.s.Slices[:20])

	probe := &diskProbe{}
	_, p, _ := l.life(8, func(d *core.Decomposer) Processor {
		probe.Decomposer = d
		return probe
	})
	probe.p = p
	left := p.SpillDiskBytes()
	if left <= 64 {
		t.Fatalf("life 1 left %d WAL bytes; nothing to keep", left)
	}
	for _, x := range l.s.Slices[20:] {
		if err := p.Offer(x); err != nil {
			t.Fatal(err)
		}
	}
	p.Start(context.Background())
	p.Drain(context.Background())
	// Slice 21 runs after checkpoint 21 (kept beside life 1's 20), slice
	// 22 after checkpoint 22 (kept beside 21, both this life's).
	if d := probe.disk; len(d) != 3 || d[0] != left || d[1] != left || d[2] > 64 {
		t.Fatalf("WAL bytes as slices 20..22 began: %v, want %d, %d, then an empty segment", d, left, left)
	}
}
