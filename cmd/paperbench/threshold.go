package main

import (
	"fmt"

	"spstream/internal/baselines"
	"spstream/internal/dense"
	"spstream/internal/synth"
)

// threshold calibrates baselines.DefaultShortModeThreshold: Hybrid routes
// a mode to the thread-local-accumulate path when its length is at or
// below the threshold and to the lock-pool path above it. The sweep
// holds the nonzero count fixed and grows one mode's length across the
// candidate range, timing both paths on the same slice; the crossover
// is where the lock path first wins. The thread-local path pays a
// rows×K×workers reduction that grows linearly in the mode length,
// while the lock path's contention *shrinks* as rows spread over more
// lock stripes — so the two must cross, and the crossover shifts with
// the worker count (more workers → bigger reduction → lower crossover).
// The default constant is calibrated against the multi-worker sweep;
// EXPERIMENTS.md records the measured table this default came from.
func (h *harness) threshold() error {
	h.header("Threshold — short-mode crossover calibration (DefaultShortModeThreshold)",
		"Hybrid Lock's local/lock switch (§IV-B); reproducible basis for the constant")
	const nnz = 150000
	const k = 16
	lengths := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	fmt.Fprintf(h.out, "slice: nnz=%d rank=%d, other modes 2000×2000 uniform (min of %d trials)\n",
		nnz, k, measureTrials)
	var rows [][]string
	for _, w := range h.measureWorkers() {
		fmt.Fprintf(h.out, "\nworkers=%d:\n", w)
		fmt.Fprintf(h.out, "%8s %14s %14s %10s\n", "rows", "local(s)", "lock(s)", "local/lock")
		crossover := -1
		for _, rowsN := range lengths {
			cfg := synth.Config{
				Name:        "threshold",
				Dists:       []synth.IndexDist{synth.Uniform{N: rowsN}, synth.Uniform{N: 2000}, synth.Uniform{N: 2000}},
				T:           1,
				NNZPerSlice: nnz,
				Seed:        31,
			}
			x, err := synth.GenerateSlice(cfg, 0)
			if err != nil {
				return err
			}
			dims := []int{rowsN, 2000, 2000}
			factors := randomFactors(dims, k, 13)
			c := baselines.NewLockKernels(w)
			out := dense.NewMatrix(rowsN, k)
			tLocal := minDuration(measureTrials, func() { c.LocalAccumulate(out, x, factors, 0) }).Seconds()
			tLock := minDuration(measureTrials, func() { c.Lock(out, x, factors, 0) }).Seconds()
			ratio := tLocal / tLock
			if ratio > 1 && crossover < 0 {
				crossover = rowsN
			}
			fmt.Fprintf(h.out, "%8d %14.6f %14.6f %10.2f\n", rowsN, tLocal, tLock, ratio)
			rows = append(rows, []string{itoa(w), itoa(rowsN), ftoa(tLocal), ftoa(tLock), ftoa(ratio)})
		}
		if crossover < 0 {
			fmt.Fprintf(h.out, "local path never lost in this sweep; crossover ≥ %d\n", lengths[len(lengths)-1])
		} else {
			fmt.Fprintf(h.out, "first lock win at %d rows → threshold in (%d, %d]\n",
				crossover, crossover/2, crossover)
		}
	}
	fmt.Fprintf(h.out, "\ncurrent DefaultShortModeThreshold = %d\n", baselines.DefaultShortModeThreshold)
	return h.writeCSV("threshold", []string{"workers", "rows", "local_s", "lock_s", "ratio"}, rows)
}
