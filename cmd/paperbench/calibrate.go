package main

import (
	"fmt"

	"spstream/internal/admm"
	"spstream/internal/baselines"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/perfmodel"
	"spstream/internal/perfmodel/sim"
)

// calibrate cross-checks the performance model against reality: the
// real single-worker kernels are timed on this host and compared to the
// model's 1-thread predictions for the *same* slice (profile measured
// from it, machine set to one core of this host's approximate speed).
// Agreement within a small factor justifies trusting the model's
// 56-thread extrapolations; the output reports the measured/model ratio
// per kernel.
func (h *harness) calibrate() error {
	h.header("Calibration — measured single-core kernels vs model predictions",
		"methodology check for the perfmodel substitution (DESIGN.md §2)")
	s, err := h.stream("nips")
	if err != nil {
		return err
	}
	x := s.Slices[s.T()/2]
	prof := perfmodel.Profile(x)
	// Model one core of a generic ~2.7 GHz host.
	mo := sim.HostModel(1)

	const k = 16
	factors := randomFactors(s.Dims, k, 3)
	c, lk := mttkrp.NewComputer(1), baselines.NewLockKernels(1)
	fmt.Fprintf(h.out, "slice: nnz=%d dims=%v rank=%d\n\n", x.NNZ(), s.Dims, k)
	fmt.Fprintf(h.out, "%-22s %12s %12s %10s\n", "kernel", "measured(s)", "model(s)", "meas/model")

	report := func(name string, measured, modeled float64) {
		ratio := 0.0
		if modeled > 0 {
			ratio = measured / modeled
		}
		fmt.Fprintf(h.out, "%-22s %12.6f %12.6f %10.2f\n", name, measured, modeled, ratio)
	}

	// MTTKRP kernels (all modes).
	outs := make([]*dense.Matrix, len(s.Dims))
	for m, d := range s.Dims {
		outs[m] = dense.NewMatrix(d, k)
	}
	measLock := minDuration(measureTrials, func() {
		for m := range s.Dims {
			lk.Lock(outs[m], x, factors, m)
		}
	}).Seconds()
	report("mttkrp-lock", measLock, mo.MTTKRPTime(sim.MTTKRPLock, prof, k, 1))
	measHL := minDuration(measureTrials, func() {
		for m := range s.Dims {
			lk.Hybrid(outs[m], x, factors, m)
		}
	}).Seconds()
	report("mttkrp-hybrid", measHL, mo.MTTKRPTime(sim.MTTKRPHybrid, prof, k, 1))
	sv := make([]float64, k)
	measTM := minDuration(measureTrials, func() { c.TimeMode(sv, x, factors) }).Seconds()
	report("timemode", measTM, mo.TimeModeUpdateTime(prof, k, 1, false))

	// ADMM kernels on the largest mode, fixed 10 iterations.
	const admmIters = 10
	big := factors[len(factors)-1]
	phi := dense.NewMatrix(k, k)
	dense.Gram(phi, big.RowView(0, 4*k))
	dense.AddScaledIdentity(phi, phi, 1)
	psi := dense.NewMatrix(big.Rows, k)
	dense.MulAB(psi, big, phi)
	measBase, measBF := timeADMM(admm.Options{Workers: 1, Tol: 1e-30, MaxIters: admmIters}, big, phi, psi)
	report("admm-baseline/iter", measBase.Seconds()/admmIters, mo.ADMMIterTime(sim.ADMMBaseline, big.Rows, k, 1))
	report("admm-bf/iter", measBF.Seconds()/admmIters, mo.ADMMIterTime(sim.ADMMBlockedFused, big.Rows, k, 1))

	fmt.Fprintln(h.out, "\nratios within roughly 0.2–5× indicate the model's cost constants are")
	fmt.Fprintln(h.out, "the right order of magnitude on this host; thread-scaling *shapes* come")
	fmt.Fprintln(h.out, "from the contention/bandwidth mechanisms, not these absolute constants.")
	return nil
}
