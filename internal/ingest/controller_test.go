package ingest

import (
	"testing"
	"time"

	"spstream/internal/admm"
	"spstream/internal/core"
	"spstream/internal/trace"
)

func newTestDecomposer(t *testing.T, opt core.Options) *core.Decomposer {
	t.Helper()
	if opt.Rank == 0 {
		opt.Rank = 3
	}
	d, err := core.NewDecomposer([]int{10, 12}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestControllerLadderDownAndUp drives the controller with synthetic
// depth observations and checks the full ladder walk: every level
// degrades the configured knobs, and the documented hysteresis bound
// holds — from the deepest level the controller is back at full
// quality within (numLevels−1)×stepUpAfter calm observations.
func TestControllerLadderDownAndUp(t *testing.T) {
	var ov trace.Overload
	d := newTestDecomposer(t, core.Options{Algorithm: core.Optimized, MaxIters: 20, ADMMMaxIters: 50})
	c := NewController(d, 0, &ov)

	// Sustained pressure: full queue every observation.
	for i := 0; i < 10; i++ {
		c.Observe(8, 8, time.Millisecond, 0)
	}
	if c.Level() != numLevels-1 {
		t.Fatalf("level = %d under sustained pressure, want %d", c.Level(), numLevels-1)
	}
	if d.MaxIters() != 10 {
		t.Fatalf("degraded MaxIters = %d, want 10", d.MaxIters())
	}
	if d.ADMMMaxIters() != 25 {
		t.Fatalf("degraded ADMMMaxIters = %d, want 25", d.ADMMMaxIters())
	}
	if d.Algorithm() != core.SpCPStream {
		t.Fatalf("deepest level algorithm = %v, want spCP-stream", d.Algorithm())
	}
	if c.WindowFactor() != 4 {
		t.Fatalf("deepest level window factor = %d, want 4", c.WindowFactor())
	}
	if got := ov.DegradeSteps.Load(); got != int64(numLevels-1) {
		t.Fatalf("DegradeSteps = %d, want %d", got, numLevels-1)
	}

	// Calm: empty queue. Documented bound: level×stepUpAfter calm
	// slices to full quality.
	bound := (numLevels - 1) * stepUpAfter
	for i := 0; i < bound; i++ {
		c.Observe(0, 8, 0, 0)
	}
	if c.Level() != 0 {
		t.Fatalf("level = %d after %d calm slices, want 0", c.Level(), bound)
	}
	if d.MaxIters() != 20 || d.ADMMMaxIters() != 50 {
		t.Fatalf("restored iters = %d/%d, want 20/50", d.MaxIters(), d.ADMMMaxIters())
	}
	if d.Algorithm() != core.Optimized {
		t.Fatalf("restored algorithm = %v, want Optimized", d.Algorithm())
	}
	if c.WindowFactor() != 1 {
		t.Fatalf("restored window factor = %d, want 1", c.WindowFactor())
	}
	if got := ov.RestoreSteps.Load(); got != int64(numLevels-1) {
		t.Fatalf("RestoreSteps = %d, want %d", got, numLevels-1)
	}
}

// TestControllerHysteresis: a single calm observation between pressure
// must not step up; mid-range depth resets the calm run.
func TestControllerHysteresis(t *testing.T) {
	var ov trace.Overload
	d := newTestDecomposer(t, core.Options{Algorithm: core.Optimized, MaxIters: 20})
	c := NewController(d, 0, &ov)
	c.Observe(8, 8, 0, 0) // degrade to 1
	if c.Level() != 1 {
		t.Fatalf("level = %d, want 1", c.Level())
	}
	c.Observe(0, 8, 0, 0)
	c.Observe(0, 8, 0, 0)
	c.Observe(4, 8, 0, 0) // neither calm nor pressure: resets the run
	c.Observe(0, 8, 0, 0)
	c.Observe(0, 8, 0, 0)
	if c.Level() != 1 {
		t.Fatalf("level = %d after interrupted calm run, want 1 (hysteresis)", c.Level())
	}
	c.Observe(0, 8, 0, 0)
	if c.Level() != 0 {
		t.Fatalf("level = %d after 3 consecutive calm slices, want 0", c.Level())
	}
}

// TestControllerLagPressure: lag beyond the max lag is pressure even
// with a shallow queue.
func TestControllerLagPressure(t *testing.T) {
	var ov trace.Overload
	d := newTestDecomposer(t, core.Options{Algorithm: core.Optimized, MaxIters: 20})
	c := NewController(d, 10*time.Millisecond, &ov)
	c.Observe(0, 8, 50*time.Millisecond, 0)
	if c.Level() != 1 {
		t.Fatalf("level = %d with lag 5× max lag, want 1", c.Level())
	}
	// The EWMA moves lagAlpha of the way to the newest lag and is still
	// past the max lag: pressure again, though the queue is shallow.
	c.Observe(0, 8, 8*time.Millisecond, 0)
	want := 50*time.Millisecond + time.Duration(lagAlpha*float64(8*time.Millisecond-50*time.Millisecond))
	if got := c.LagEWMA(); got != want {
		t.Fatalf("LagEWMA = %v with α=%g, want %v", got, lagAlpha, want)
	}
	if c.Level() != 2 {
		t.Fatalf("level = %d with lag EWMA %v past the max lag, want 2", c.Level(), want)
	}
	// Calm needs lag ≤ max lag/2 as well as a shallow queue: while the
	// EWMA decays through (5ms, 10ms] the level holds, and only calm
	// observations below 5ms step it up.
	for c.LagEWMA() > 10*time.Millisecond {
		c.Observe(0, 8, 0, 0)
	}
	level := c.Level()
	for c.LagEWMA() > 5*time.Millisecond {
		c.Observe(0, 8, 0, 0)
	}
	if c.Level() != level {
		t.Fatalf("level = %d after lag EWMA decayed to %v, want %d (lag above max lag/2 is not calm)", c.Level(), c.LagEWMA(), level)
	}
	for i := 0; i < stepUpAfter; i++ {
		c.Observe(0, 8, 0, 0)
	}
	if c.Level() != level-1 {
		t.Fatalf("level = %d after %d calm observations, want %d", c.Level(), stepUpAfter, level-1)
	}
}

// TestControllerConstrainedFallback: a constrained model cannot take
// the spCP rung; the deepest level must deepen the iteration cut
// instead — and still restore exactly.
func TestControllerConstrainedFallback(t *testing.T) {
	var ov trace.Overload
	d := newTestDecomposer(t, core.Options{Algorithm: core.Optimized, Constraint: admm.NonNeg{}, MaxIters: 20, ADMMMaxIters: 40})
	c := NewController(d, 0, &ov)
	for i := 0; i < numLevels; i++ {
		c.Observe(8, 8, 0, 0)
	}
	if d.Algorithm() != core.Optimized {
		t.Fatalf("constrained decomposer switched to %v", d.Algorithm())
	}
	if d.MaxIters() != 5 || d.ADMMMaxIters() != 10 {
		t.Fatalf("constrained fallback iters = %d/%d, want 5/10", d.MaxIters(), d.ADMMMaxIters())
	}
	for i := 0; i < (numLevels-1)*stepUpAfter; i++ {
		c.Observe(0, 8, 0, 0)
	}
	if d.MaxIters() != 20 || d.ADMMMaxIters() != 40 || c.Level() != 0 {
		t.Fatalf("constrained restore = %d/%d level %d", d.MaxIters(), d.ADMMMaxIters(), c.Level())
	}
}

// TestControllerSpillPressure: a growing durable backlog is lag the
// queue depth cannot see — the disk absorbs the overflow, so the queue
// looks shallow while the backlog (and the disk bill) grows. The
// controller must treat any spill backlog as pressure and must not
// restore quality until the backlog has fully drained.
func TestControllerSpillPressure(t *testing.T) {
	var ov trace.Overload
	d := newTestDecomposer(t, core.Options{Algorithm: core.Optimized, MaxIters: 20})
	c := NewController(d, 0, &ov)

	// Empty queue + spilled backlog: step down anyway.
	c.Observe(0, 8, 0, 500)
	if c.Level() != 1 {
		t.Fatalf("level = %d with a 500-slice spill backlog, want 1", c.Level())
	}

	// A backlog that persists keeps the pressure on — the controller
	// walks the whole ladder before the disk fills, even though the
	// in-memory queue never looks busy.
	for i := 0; i < numLevels; i++ {
		c.Observe(0, 8, 0, 300)
	}
	if c.Level() != numLevels-1 {
		t.Fatalf("level = %d under a sustained backlog, want %d", c.Level(), numLevels-1)
	}

	// The queue has calmed but the disk hasn't: any remaining backlog
	// blocks the restore — the hysteretic path drains the spill tier
	// first.
	for i := 0; i < 5; i++ {
		c.Observe(0, 8, 0, 3)
	}
	if c.Level() != numLevels-1 {
		t.Fatalf("level = %d while the backlog still drains, want %d (restore must wait)", c.Level(), numLevels-1)
	}

	// Backlog gone: calm observations (stepUpAfter per rung) restore
	// full quality.
	for i := 0; i < (numLevels-1)*stepUpAfter; i++ {
		c.Observe(0, 8, 0, 0)
	}
	if c.Level() != 0 || d.MaxIters() != 20 {
		t.Fatalf("level = %d iters = %d after the backlog drained, want 0/20", c.Level(), d.MaxIters())
	}
}
