package main

import (
	"fmt"
	"time"

	"spstream/internal/admm"
	"spstream/internal/baselines"
	"spstream/internal/core"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
	"spstream/internal/trace"
)

// sliceRunner is what the measured experiments need of a decomposition.
type sliceRunner interface {
	ProcessSlice(*sptensor.Tensor) (core.SliceResult, error)
	Breakdown() *trace.Breakdown
}

// variant is one column of the paper's comparison: the unoptimized
// CP-stream (internal/baselines — an experiment, not a core.Algorithm)
// or one of the two algorithms the runtime serves.
type variant struct {
	name     string
	baseline bool
	alg      core.Algorithm
}

var (
	varBaseline  = variant{name: "baseline", baseline: true}
	varOptimized = variant{name: "optimized", alg: core.Optimized}
	varSpCP      = variant{name: "spcp-stream", alg: core.SpCPStream}
)

func (v variant) String() string { return v.name }

// newRunner creates the variant's decomposition; both start from the
// same factors for the same opt.Seed.
func (v variant) newRunner(dims []int, opt core.Options) (sliceRunner, error) {
	if v.baseline {
		return baselines.NewCPStream(dims, opt)
	}
	opt.Algorithm = v.alg
	return core.NewDecomposer(dims, opt)
}

// measureTrials is the repeat count for kernel timings; the minimum is
// reported, as in the paper (§VI-C).
const measureTrials = 3

// randomFactors builds random factors for a slice's modes.
func randomFactors(dims []int, k int, seed uint64) []*dense.Matrix {
	r := synth.NewRNG(seed)
	out := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		f := dense.NewMatrix(d, k)
		for i := range f.Data {
			f.Data[i] = r.Float64() + 0.1
		}
		out[m] = f
	}
	return out
}

// minDuration runs f trials times and returns the fastest wall time.
func minDuration(trials int, f func()) time.Duration {
	best := time.Duration(0)
	for t := 0; t < trials; t++ {
		start := time.Now()
		f()
		d := time.Since(start)
		if t == 0 || d < best {
			best = d
		}
	}
	return best
}

// estimateADMMIters runs a small real constrained decomposition and
// returns the average ADMM iteration count per mode update, used to
// weight the constrained cost model.
func (h *harness) estimateADMMIters() (int, error) {
	cfg, err := synth.Preset("nips", 0.05)
	if err != nil {
		return 0, err
	}
	st, err := synth.Generate(cfg)
	if err != nil {
		return 0, err
	}
	dec, err := core.NewDecomposer(st.Dims, core.Options{
		Rank:       8,
		Algorithm:  core.Optimized,
		Constraint: admm.NonNeg{},
		MaxIters:   5,
	})
	if err != nil {
		return 0, err
	}
	totalADMM, totalUpdates := 0, 0
	for t := 0; t < 3 && t < st.T(); t++ {
		res, err := dec.ProcessSlice(st.Slices[t])
		if err != nil {
			return 0, err
		}
		totalADMM += res.ADMMIters
		totalUpdates += res.Iters * len(st.Dims)
	}
	if totalUpdates == 0 {
		return 10, nil
	}
	iters := totalADMM / totalUpdates
	if iters < 1 {
		iters = 1
	}
	return iters, nil
}

// measureFig2 times the real ADMM kernels on this host.
func (h *harness) measureFig2() error {
	s, err := h.stream("nips")
	if err != nil {
		return err
	}
	const admmIters = 10
	for _, k := range []int{16, 32} {
		fmt.Fprintf(h.out, "\nrank %d (fixed %d ADMM iterations per solve, min of %d trials):\n",
			k, admmIters, measureTrials)
		fmt.Fprintf(h.out, "%8s %14s %14s %10s\n", "workers", "baseline(s)", "BF(s)", "speedup")
		factors := randomFactors(s.Dims, k, 7)
		phi := dense.NewMatrix(k, k)
		dense.Gram(phi, factors[len(factors)-1])
		dense.AddScaledIdentity(phi, phi, 1)
		for _, w := range h.measureWorkers() {
			opt := admm.Options{Workers: w, Tol: 1e-30, MaxIters: admmIters}
			var tBase, tBF time.Duration
			for _, f := range factors {
				psi := dense.NewMatrix(f.Rows, k)
				dense.MulAB(psi, f, phi)
				b, bf := timeADMM(admm.NewSolver(opt), f, phi, psi)
				tBase, tBF = tBase+b, tBF+bf
			}
			fmt.Fprintf(h.out, "%8d %14.6f %14.6f %9.2fx\n",
				w, tBase.Seconds()/admmIters, tBF.Seconds()/admmIters,
				float64(tBase)/float64(tBF))
		}
	}
	return nil
}

// measureFig3 reports measured kernel speedups at the host's maximum
// worker count.
func (h *harness) measureFig3() error {
	ws := h.measureWorkers()
	w := ws[len(ws)-1]
	fmt.Fprintf(h.out, "(workers = %d, min of %d trials)\n", w, measureTrials)
	fmt.Fprintf(h.out, "%6s %-8s %12s %14s\n", "rank", "dataset", "ADMM", "MTTKRP")
	for _, k := range paperRanks {
		for _, name := range []string{"patents", "nips", "uber"} {
			s, err := h.stream(name)
			if err != nil {
				return err
			}
			aSpeed, err := measureADMMSpeedup(s.Dims, k, w)
			if err != nil {
				return err
			}
			tLock, tHL := measureLockVsHL(s.Slices[s.T()/2], s.Dims, randomFactors(s.Dims, k, 5), k, w)
			fmt.Fprintf(h.out, "%6d %-8s %11.2fx %13.2fx\n", k, name, aSpeed, float64(tLock)/float64(tHL))
		}
	}
	return nil
}

func measureADMMSpeedup(dims []int, k, w int) (float64, error) {
	factors := randomFactors(dims, k, 3)
	phi := dense.NewMatrix(k, k)
	dense.Gram(phi, factors[0].RowView(0, min(factors[0].Rows, 4*k)))
	dense.AddScaledIdentity(phi, phi, 1)
	opt := admm.Options{Workers: w, Tol: 1e-30, MaxIters: 5}
	solver := admm.NewSolver(opt)
	var tBase, tBF time.Duration
	for _, f := range factors {
		psi := dense.NewMatrix(f.Rows, k)
		dense.MulAB(psi, f, phi)
		b, bf := timeADMM(solver, f, phi, psi)
		tBase, tBF = tBase+b, tBF+bf
	}
	return float64(tBase) / float64(tBF), nil
}

// timeADMM times one non-negative solve from the warm start a0 with the
// baseline ADMM (Algorithm 2) and with Blocked & Fused (Algorithm 3).
func timeADMM(solver *admm.Solver, a0, phi, psi *dense.Matrix) (tBase, tBF time.Duration) {
	run := func(solve func(a, phi, psi *dense.Matrix, con admm.Constraint) (admm.Stats, error)) time.Duration {
		return minDuration(measureTrials, func() {
			if _, err := solve(a0.Clone(), phi, psi, admm.NonNeg{}); err != nil {
				panic(err)
			}
		})
	}
	return run(solver.Baseline), run(solver.BlockedFused)
}

// measureLockVsHL times one inner iteration's MTTKRP work — every factor
// mode plus the streaming-mode update — with the baseline kernels
// (lock pool, single-lock time mode) and with Hybrid Lock + the
// thread-local time mode.
func measureLockVsHL(x *sptensor.Tensor, dims []int, factors []*dense.Matrix, k, w int) (tLock, tHL time.Duration) {
	lk, c := baselines.NewLockKernels(w), mttkrp.NewComputer(w)
	s := make([]float64, k)
	for mode := range dims {
		out := dense.NewMatrix(dims[mode], k)
		tLock += minDuration(measureTrials, func() { lk.Lock(out, x, factors, mode) })
		tHL += minDuration(measureTrials, func() { lk.Hybrid(out, x, factors, mode) })
	}
	tLock += minDuration(measureTrials, func() { lk.TimeModeLocked(s, x, factors) })
	tHL += minDuration(measureTrials, func() { c.TimeMode(s, x, factors) })
	return tLock, tHL
}

// measureFig4 times the real MTTKRP kernels across the worker sweep.
func (h *harness) measureFig4() error {
	s, err := h.stream("nips")
	if err != nil {
		return err
	}
	x := s.Slices[s.T()/2]
	for _, k := range []int{16, 128} {
		factors := randomFactors(s.Dims, k, 11)
		fmt.Fprintf(h.out, "\nrank %d (all modes + streaming-mode update, min of %d trials):\n", k, measureTrials)
		fmt.Fprintf(h.out, "%8s %14s %14s %10s\n", "workers", "baseline(s)", "HL(s)", "speedup")
		for _, w := range h.measureWorkers() {
			tLock, tHL := measureLockVsHL(x, s.Dims, factors, k, w)
			fmt.Fprintf(h.out, "%8d %14.6f %14.6f %9.2fx\n", w, tLock.Seconds(), tHL.Seconds(), float64(tLock)/float64(tHL))
		}
	}
	return nil
}

// measureFig5 runs real constrained decompositions end to end.
func (h *harness) measureFig5() error {
	ws := h.measureWorkers()
	w := ws[len(ws)-1]
	fmt.Fprintf(h.out, "(workers = %d, %d slices per run)\n", w, h.slices)
	fmt.Fprintf(h.out, "%6s %-8s %10s\n", "rank", "dataset", "speedup")
	for _, k := range []int{16, 32} {
		for _, name := range []string{"patents", "nips", "uber"} {
			b, err := h.runDecomposition(name, varBaseline, k, w, true)
			if err != nil {
				return err
			}
			o, err := h.runDecomposition(name, varOptimized, k, w, true)
			if err != nil {
				return err
			}
			fmt.Fprintf(h.out, "%6d %-8s %9.2fx\n", k, name, b/o)
		}
	}
	return nil
}

// measureNonConstrained runs the three non-constrained algorithms.
func (h *harness) measureNonConstrained(datasets []string, ranks []int) error {
	for _, name := range datasets {
		for _, k := range ranks {
			fmt.Fprintf(h.out, "\n%s rank %d (per-iteration seconds, %d slices):\n", name, k, h.slices)
			fmt.Fprintf(h.out, "%8s %12s %12s %12s %8s %8s\n", "workers", "baseline", "optimized", "spCP", "N/B", "O/B")
			for _, w := range h.measureWorkers() {
				b, err := h.runDecomposition(name, varBaseline, k, w, false)
				if err != nil {
					return err
				}
				o, err := h.runDecomposition(name, varOptimized, k, w, false)
				if err != nil {
					return err
				}
				n, err := h.runDecomposition(name, varSpCP, k, w, false)
				if err != nil {
					return err
				}
				fmt.Fprintf(h.out, "%8d %12.6f %12.6f %12.6f %7.2fx %7.2fx\n", w, b, o, n, b/n, b/o)
			}
		}
	}
	return nil
}

// runDecomposition runs h.slices slices and returns the per-inner-
// iteration wall time in seconds.
func (h *harness) runDecomposition(name string, v variant, k, w int, constrained bool) (float64, error) {
	s, err := h.stream(name)
	if err != nil {
		return 0, err
	}
	opt := core.Options{Rank: k, Workers: w, Seed: 9, MaxIters: 5}
	if constrained {
		opt.Constraint = admm.NonNeg{}
		opt.ADMMMaxIters = 10
	}
	dec, err := v.newRunner(s.Dims, opt)
	if err != nil {
		return 0, err
	}
	iters := 0
	start := time.Now()
	for t := 0; t < h.slices && t < s.T(); t++ {
		res, err := dec.ProcessSlice(s.Slices[t])
		if err != nil {
			return 0, err
		}
		iters += res.Iters
	}
	elapsed := time.Since(start)
	if iters == 0 {
		iters = 1
	}
	return elapsed.Seconds() / float64(iters), nil
}

// measureFig8 runs the three algorithms on Flickr and prints the real
// measured phase breakdown.
func (h *harness) measureFig8() error {
	ws := h.measureWorkers()
	w := ws[len(ws)-1]
	s, err := h.stream("flickr")
	if err != nil {
		return err
	}
	fmt.Fprintf(h.out, "(workers = %d, %d slices, rank 16; per-iteration ms)\n\n", w, h.slices)
	fmt.Fprintf(h.out, "%-12s %10s", "algorithm", "total")
	for ph := 0; ph < trace.NumPhases; ph++ {
		fmt.Fprintf(h.out, " %10s", trace.Phase(ph))
	}
	fmt.Fprintln(h.out)
	for _, alg := range []variant{varBaseline, varOptimized, varSpCP} {
		dec, err := alg.newRunner(s.Dims, core.Options{Rank: 16, Workers: w, Seed: 9, MaxIters: 5})
		if err != nil {
			return err
		}
		for t := 0; t < h.slices && t < s.T(); t++ {
			if _, err := dec.ProcessSlice(s.Slices[t]); err != nil {
				return err
			}
		}
		bd := dec.Breakdown()
		per := bd.PerIter()
		fmt.Fprintf(h.out, "%-12s %10.3f", alg, bd.Total().Seconds()*1e3/float64(max(bd.Iters, 1)))
		for ph := 0; ph < trace.NumPhases; ph++ {
			fmt.Fprintf(h.out, " %10.4f", per[ph].Seconds()*1e3)
		}
		fmt.Fprintln(h.out)
	}
	return nil
}
