package ingest

import (
	"sync/atomic"
	"time"

	"spstream/internal/core"
	"spstream/internal/trace"
)

// Tunable is the runtime tuning surface the controller drives —
// implemented by core.Decomposer (internal/core/tune.go). Wrappers
// (e.g. a test throttler) can embed a Decomposer to forward it.
type Tunable interface {
	MaxIters() int
	SetMaxIters(int)
	ADMMMaxIters() int
	SetADMMMaxIters(int)
	Algorithm() core.Algorithm
	SetAlgorithm(core.Algorithm) error
}

// The controller's fixed thresholds.
const (
	// highWater is the queue-depth fraction at or above which the
	// controller steps the quality ladder down.
	highWater = 0.75
	// lowWater is the queue-depth fraction at or below which a slice
	// counts as calm (a step-up candidate).
	lowWater = 0.25
	// stepUpAfter is the hysteresis: consecutive calm slices required
	// before one step back up the ladder. After a burst the controller
	// is therefore back at full quality within level×stepUpAfter calm
	// slices.
	stepUpAfter = 3
	// lagAlpha is the EWMA weight of the newest lag observation.
	lagAlpha = 0.3
)

// Ladder levels. Each level is applied absolutely (not incrementally),
// so the controller can jump to any level and land in a consistent
// configuration.
const (
	// levelFull is the configuration the decomposer was built with.
	levelFull = iota
	// levelFewerIters halves the inner (and ADMM) iteration bounds.
	levelFewerIters
	// levelWiderWindow additionally doubles the accumulation window
	// (producers poll WindowFactor).
	levelWiderWindow
	// levelFastAlg additionally switches to the cheapest compatible
	// algorithm (spCP-stream; constrained runs quarter their iteration
	// bounds instead) and quadruples the window.
	levelFastAlg
	numLevels
)

// Controller steps a quality ladder down under sustained overload and
// hysteretically back up once the pipeline catches up — the live
// path's analogue of the paper's own exactness/speed trade (spCP-
// stream): under pressure the model takes cheaper, coarser steps; at
// calm it returns to full fidelity.
//
// Observe is called by the pipeline's consumer loop between slices
// (the only time the Tunable may be mutated); Level and WindowFactor
// are safe to read from other goroutines.
type Controller struct {
	// maxLag, when positive, is the target admission-to-solve lag: lag
	// beyond it is pressure regardless of queue depth, and calm
	// additionally requires lag ≤ maxLag/2.
	maxLag time.Duration
	tun    Tunable
	ov     *trace.Overload

	// Base configuration captured at construction — the "full quality"
	// the ladder restores to.
	baseIters, baseADMM int
	baseAlg             core.Algorithm

	level        atomic.Int32
	windowFactor atomic.Int32
	calmRun      int
	lagEWMA      time.Duration
}

// NewController captures tun's current configuration as full quality.
// maxLag is the pipeline's (Config.MaxLag); zero leaves lag out of the
// pressure and calm tests.
func NewController(tun Tunable, maxLag time.Duration, ov *trace.Overload) *Controller {
	c := &Controller{
		maxLag:    maxLag,
		tun:       tun,
		ov:        ov,
		baseIters: tun.MaxIters(),
		baseADMM:  tun.ADMMMaxIters(),
		baseAlg:   tun.Algorithm(),
	}
	c.windowFactor.Store(1)
	return c
}

// Level returns the current ladder level (0 = full quality).
func (c *Controller) Level() int { return int(c.level.Load()) }

// WindowFactor returns the multiplier producers should apply to the
// base accumulation window (1, 2, or 4). Safe for concurrent reads.
func (c *Controller) WindowFactor() int { return int(c.windowFactor.Load()) }

// LagEWMA returns the smoothed admission-to-solve lag.
func (c *Controller) LagEWMA() time.Duration { return c.lagEWMA }

// Observe feeds one post-slice measurement (or one shed event) into
// the controller: the queue depth just after the pop, the queue
// capacity, the slice's admission-to-solve lag, and the durable spill
// backlog (0 without the Spill policy). It applies at most one ladder
// transition per call.
//
// A growing spill backlog is a lag signal even while the in-memory
// queue looks healthy: every spilled slice is deferred work, and left
// alone it fills the disk. Any pending spill is therefore pressure,
// and calm — the hysteretic path back up the quality ladder — demands
// the spill tier be fully drained first, so the controller never
// restores quality while the disk still holds backlog.
func (c *Controller) Observe(depth, capacity int, lag time.Duration, spillPending int64) {
	if c.lagEWMA == 0 {
		c.lagEWMA = lag
	} else {
		c.lagEWMA += time.Duration(lagAlpha * float64(lag-c.lagEWMA))
	}
	c.ov.LagEWMANanos.Store(int64(c.lagEWMA))

	fill := float64(depth) / float64(capacity)
	pressure := fill >= highWater ||
		(c.maxLag > 0 && c.lagEWMA > c.maxLag) ||
		spillPending > 0
	calm := fill <= lowWater && spillPending == 0 &&
		(c.maxLag == 0 || c.lagEWMA <= c.maxLag/2)

	level := int(c.level.Load())
	switch {
	case pressure && level < numLevels-1:
		c.calmRun = 0
		c.apply(level + 1)
		c.ov.DegradeSteps.Add(1)
	case calm && level > 0:
		c.calmRun++
		if c.calmRun >= stepUpAfter {
			c.calmRun = 0
			c.apply(level - 1)
			c.ov.RestoreSteps.Add(1)
		}
	case !calm:
		c.calmRun = 0
	}
}

// apply moves the Tunable to the given ladder level. Levels are
// absolute: each sets every knob from the captured base configuration.
func (c *Controller) apply(level int) {
	iters, admm := c.baseIters, c.baseADMM
	alg := c.baseAlg
	window := 1
	if level >= levelFewerIters {
		iters = max(2, c.baseIters/2)
		admm = max(5, c.baseADMM/2)
	}
	if level >= levelWiderWindow {
		window = 2
	}
	if level >= levelFastAlg {
		window = 4
		// The cheapest solve path: spCP-stream keeps untouched rows in
		// Gram form. Constrained models cannot take it (unless the
		// experimental extension is armed), so they deepen the
		// iteration cut instead.
		if c.tun.SetAlgorithm(core.SpCPStream) != nil {
			alg = c.tun.Algorithm()
			iters = max(1, c.baseIters/4)
			admm = max(2, c.baseADMM/4)
		} else {
			alg = core.SpCPStream
		}
	}
	if level < levelFastAlg && c.tun.Algorithm() != alg {
		// Stepping back up: restore the configured algorithm.
		if err := c.tun.SetAlgorithm(alg); err != nil {
			// Cannot happen for a base algorithm the decomposer was
			// built with, but stay consistent if it does.
			alg = c.tun.Algorithm()
		}
	}
	c.tun.SetMaxIters(iters)
	c.tun.SetADMMMaxIters(admm)
	c.windowFactor.Store(int32(window))
	c.level.Store(int32(level))
}
