package main

import (
	"fmt"
	"math"

	"spstream/internal/core"
)

// fitlog reproduces the execution log the paper refers to in §VI-C
// ("Our work demonstrates similar fit error and convergence properties
// as the original CP-stream algorithm … interested readers can find our
// execution log in our repository"): per-slice fit, inner-iteration
// count and convergence measure for the three algorithm variants on
// every dataset analogue, plus the maximum fit deviation between the
// baseline and each optimized variant.
func (h *harness) fitlog() error {
	h.header("Execution log — fit error and convergence per slice (paper §VI-C)",
		"§VI-C (fit and convergence parity across implementations)")
	for _, name := range []string{"uber", "nips", "flickr", "patents"} {
		s, err := h.stream(name)
		if err != nil {
			return err
		}
		algs := []variant{varBaseline, varOptimized, varSpCP}
		decs := make([]sliceRunner, len(algs))
		for i, alg := range algs {
			decs[i], err = alg.newRunner(s.Dims, core.Options{
				Rank: 16, Seed: 7, TrackFit: true,
			})
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(h.out, "\n%s (dims=%v, %d slices):\n", name, s.Dims, s.T())
		fmt.Fprintf(h.out, "%6s | %9s %6s %10s | %9s %6s %10s | %9s %6s %10s\n",
			"slice", "fit(B)", "it(B)", "delta(B)", "fit(O)", "it(O)", "delta(O)", "fit(N)", "it(N)", "delta(N)")
		maxT := s.T()
		if maxT > h.slices && h.slices > 0 {
			maxT = h.slices
		}
		worstFitDev, worstIterDev := 0.0, 0
		var rows [][]string
		for t := 0; t < maxT; t++ {
			results := make([]core.SliceResult, len(algs))
			for i, dec := range decs {
				results[i], err = dec.ProcessSlice(s.Slices[t])
				if err != nil {
					return fmt.Errorf("%s %v slice %d: %w", name, algs[i], t, err)
				}
			}
			fmt.Fprintf(h.out, "%6d |", t)
			row := []string{name, itoa(t)}
			for _, r := range results {
				fmt.Fprintf(h.out, " %9.5f %6d %10.4g |", r.Fit, r.Iters, r.Delta)
				row = append(row, ftoa(r.Fit), itoa(r.Iters))
			}
			fmt.Fprintln(h.out)
			rows = append(rows, row)
			for _, r := range results[1:] {
				if d := math.Abs(r.Fit - results[0].Fit); d > worstFitDev && !math.IsNaN(d) {
					worstFitDev = d
				}
				if d := r.Iters - results[0].Iters; d > worstIterDev {
					worstIterDev = d
				} else if -d > worstIterDev {
					worstIterDev = -d
				}
			}
		}
		fmt.Fprintf(h.out, "max |fit − fit(B)| = %.2g, max |iters − iters(B)| = %d ", worstFitDev, worstIterDev)
		if worstFitDev < 1e-3 {
			fmt.Fprintf(h.out, "— fit/convergence parity holds (§VI-C)\n")
		} else {
			fmt.Fprintf(h.out, "— WARNING: fit parity violated\n")
		}
		if err := h.writeCSV("fitlog_"+name,
			[]string{"dataset", "slice", "fit_baseline", "iters_baseline", "fit_optimized", "iters_optimized", "fit_spcp", "iters_spcp"},
			rows); err != nil {
			return err
		}
	}
	return nil
}
