package main

import (
	"fmt"
	"time"

	"spstream/internal/core"
	"spstream/internal/dense"
	"spstream/internal/trace"
)

// runEnv is what every workload run shares: the seed, how long to
// measure, the scratch directory, and the parallel widths.
type runEnv struct {
	seed         uint64
	duration     time.Duration
	dir          string // scratch, inside the checkout, removed at exit
	workers      int    // GOMAXPROCS of the bench = Options.Workers of batch workloads
	daemonProcs  int    // GOMAXPROCS handed to the spstreamd child
	daemonBin    string // built spstreamd ("" until a serve workload needs it)
	quick        bool
	buildSeconds float64
	hostTriadGBs float64 // 0 until a traced run measures it
}

// result is one run of one workload.
type result struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Traced         bool               `json:"traced"`
	T              int                `json:"t"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Metrics        map[string]float64 `json:"metrics"`   // end-to-end, untraced runs
	Samples        map[string]int     `json:"samples"`   // sample count behind each timing
	PerLayer       map[string]float64 `json:"per_layer"` // bench.* always, the rest traced runs only
	Violations     []string           `json:"violations,omitempty"`
	Invalid        []string           `json:"invalid,omitempty"` // measurement-health flags
	KernelSchedule string             `json:"kernel_schedule,omitempty"`
	InputChecksum  uint64             `json:"input_checksum"`
}

func newResult(name string, env *runEnv) *result {
	return &result{
		Workload: name, Seed: env.seed,
		Metrics: map[string]float64{}, Samples: map[string]int{}, PerLayer: map[string]float64{},
	}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// setN records a timing together with the number of samples behind it.
func (r *result) setN(name string, v float64, n int) {
	r.Metrics[name] = v
	r.Samples[name] = n
}

// violate records a correctness-gate failure; any makes the run
// incorrect and the command exit non-zero.
func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// flag records a measurement-health problem (late generator, tracing
// overhead): the numbers are printed but marked invalid.
func (r *result) flag(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.Violations) == 0 }

// failedRatio is failures over attempts, the way the issue defines
// failed_ratio; the contract carries it as the attempted/failed pair.
func (r *result) failedRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func modelFactors(d *core.Decomposer) []*dense.Matrix {
	f := make([]*dense.Matrix, len(d.Dims()))
	for m := range f {
		f[m] = d.Factor(m)
	}
	return f
}

// phaseKey is the metric-name fragment of a Breakdown phase.
func phaseKey(p trace.Phase) string {
	return [...]string{"pre", "post", "update", "inverse", "mttkrp", "gram", "historical", "error", "misc"}[p]
}
