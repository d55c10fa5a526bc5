package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spstream/internal/core"
)

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median, so one slow page-cache or scheduler hiccup does not decide it.
const setupRepeats = 3

// runBatch measures one batch workload for about the given duration
// (always at least one full pass over its T slices).
func runBatch(ctx context.Context, env *runEnv, w workload, tr *tracer) (*result, error) {
	spec := *w.batch
	res := newResult(w.name, env)
	res.T = spec.t

	var in *batchInput
	var dec *core.Decomposer
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		in, dec = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = spec.generate(env.seed, filepath.Join(env.dir, "blocks")); err != nil {
			return nil, err
		}
		if dec, err = core.NewDecomposer(in.dims, spec.options(env.workers)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	res.InputChecksum = in.checksum

	var heap *heapSampler
	if tr != nil {
		heap = startHeapSampler()
	}

	var (
		walls, cpus, allocs []float64
		split               coreSplit
		nnzSum              int
		crcAfterWarm        uint64
		first               *core.Decomposer // pass 0's decomposer, kept for the gates and probes
	)
	begin := time.Now()
	deadline := begin.Add(env.duration)
passes:
	for pass := 0; ; pass++ {
		run := &batchRun{spec: spec, in: in, dec: dec}
		for t := 0; t < spec.t; t++ {
			if pass > 0 && !time.Now().Before(deadline) {
				break passes
			}
			sliceStart := time.Now()
			obs, err := run.step(ctx, t)
			res.Attempted++
			if err != nil {
				res.Failed++
				res.violate("%v", err)
				break passes
			}
			if pass == 0 && t == warmupSlices-1 {
				crcAfterWarm = factorCRC(dec)
			}
			if t < warmupSlices {
				continue
			}
			split.add(obs)
			walls = append(walls, ms(obs.wall))
			cpus = append(cpus, ms(obs.cpu))
			allocs = append(allocs, float64(obs.alloc)/1e6)
			nnzSum += in.nnz[t]
			if tr != nil {
				tr.sliceSpans(w.name, pass*spec.t+t, sliceStart, obs)
			}
		}
		if pass == 0 {
			first = dec
		}
		if !time.Now().Before(deadline) {
			break
		}
		// The next pass starts from a fresh decomposer; collecting the
		// previous one first keeps peak RSS at input + two decomposers
		// whatever the collector's timing.
		dec = nil
		runtime.GC()
		var err error
		if dec, err = core.NewDecomposer(in.dims, spec.options(env.workers)); err != nil {
			return nil, err
		}
	}
	timed := split.n
	if first == nil || timed == 0 {
		return res, nil // a slice failed during pass 0; violations say why
	}

	res.setN("slice_ms_p25", percentile(sorted(walls), 25), timed)
	res.PerLayer["bench.cpu_ms_per_slice"] = median(cpus)
	res.PerLayer["bench.slice_ms_p50"] = median(walls)
	res.PerLayer["bench.nnz_per_s"] = float64(nnzSum) / split.wall.Seconds()
	res.set("peak_rss_mb", procStatusMB(os.Getpid(), "VmHWM"))

	// Model quality, after the timed loop, from the factors alone.
	last, err := in.sliceAt(spec.t - 1)
	if err != nil {
		return nil, err
	}
	factors := modelFactors(first)
	fit := modelFit(last, factors, first.LastS())
	res.PerLayer["bench.fit_final"] = fit
	if math.IsNaN(fit) {
		res.violate("fit_final is NaN")
	} else if own, err := first.FitOf(last); err != nil || math.Abs(own-fit) > 1e-9 {
		res.violate("fit from the factors %.12g disagrees with Decomposer.FitOf %.12g (%v)", fit, own, err)
	}
	for m, f := range factors {
		if f.HasNaN() {
			res.violate("factor %d holds NaN", m)
		}
	}
	if spec.blocked {
		if err := gateStreamedEqualsInMemory(ctx, env, spec, in, crcAfterWarm); err != nil {
			res.violate("%v", err)
		}
	}

	res.PerLayer["bench.alloc_mb_per_slice"] = median(allocs)
	tp, tv := tail(walls)
	res.PerLayer["bench.slice_ms_tail"] = tv
	res.PerLayer["bench.slice_tail_pct"] = tp
	split.emit(res)
	res.KernelSchedule = string(first.KernelSchedule(nil))

	if tr != nil {
		res.PerLayer["core.peak_heap_mb"] = heap.stop()
		if err := batchProbes(ctx, env, w, in, first, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gateStreamedEqualsInMemory re-runs the warm-up slices, materialised
// in memory from their block files, on the streamed path's
// bit-identical twin (Optimized with the plan kernel, no layout) and
// compares the model bit for bit with what the streamed decomposer
// held at the same point.
func gateStreamedEqualsInMemory(ctx context.Context, env *runEnv, spec batchSpec, in *batchInput, streamedCRC uint64) error {
	o := spec.options(env.workers)
	o.MemBudget = 0
	o.MTTKRPKernel = core.KernelPlan
	o.Layout = core.LayoutOff
	ctl, err := core.NewDecomposer(in.dims, o)
	if err != nil {
		return err
	}
	for t := 0; t < warmupSlices; t++ {
		x, err := in.sliceAt(t)
		if err != nil {
			return err
		}
		if _, err := feedSlice(ctx, ctl, t, func() (core.SliceResult, error) { return ctl.ProcessSliceContext(ctx, x) }); err != nil {
			return fmt.Errorf("in-memory control slice %d: %w", t, err)
		}
	}
	if got := factorCRC(ctl); got != streamedCRC {
		return fmt.Errorf("first %d slices streamed (crc %016x) differ from the same slices in memory (crc %016x)", warmupSlices, streamedCRC, got)
	}
	return nil
}
