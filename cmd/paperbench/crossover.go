package main

import (
	"fmt"

	"spstream/internal/perfmodel"
	"spstream/internal/perfmodel/sim"
	"spstream/internal/synth"
)

// crossover maps spCP-stream's advantage over optimized CP-stream as a
// function of the mode length — the claim of §VI-E3 that the Gram-form
// reformulation pays off on "any tensors with very large dimension
// sizes": the slice's nonzero count is held fixed while one mode grows
// from a few times the nz-row count to ~100×, so the explicit
// algorithms' full-factor Historical products and row solves grow while
// spCP-stream's per-iteration cost stays pinned to the nz rows.
func (h *harness) crossover() error {
	h.header("Crossover — spCP-stream gain vs mode length (extension of §VI-E3)",
		"§VI-E3 (\"this behavior should occur in any tensors with very large dimension sizes\")")
	mo := h.perfModel()
	const nnz = 20000
	fmt.Fprintf(h.out, "%10s %14s %12s %12s %10s\n", "dim", "zeroRowFrac", "optimized(s)", "spCP(s)", "N/O")
	var rows [][]string
	for _, images := range []int{25000, 50000, 100000, 400000, 1600000} {
		cfg := synth.Config{
			Name: "crossover",
			Dists: []synth.IndexDist{
				synth.NewZipf(4000, 0.7),
				synth.Clustered{N: images, Window: images, Drift: images / 2, Revisit: 0.02},
				synth.NewZipf(20000, 0.7),
			},
			T:           3,
			NNZPerSlice: nnz,
			Seed:        3,
		}
		x, err := synth.GenerateSlice(cfg, 1)
		if err != nil {
			return err
		}
		prof := perfmodel.Profile(x)
		zeroFrac := 1 - float64(prof.Modes[1].NZRows)/float64(prof.Modes[1].Dim)
		o := mo.IterTime(sim.AlgOptimized, prof, 16, 56, 6)
		n := mo.IterTime(sim.AlgSpCP, prof, 16, 56, 6)
		fmt.Fprintf(h.out, "%10d %14.4f %12.6f %12.6f %9.1fx\n", images, zeroFrac, o, n, o/n)
		rows = append(rows, []string{itoa(images), ftoa(zeroFrac), ftoa(o), ftoa(n), ftoa(o / n)})
	}
	fmt.Fprintln(h.out, "\nexpected: the N/O gain grows with the mode length — the explicit")
	fmt.Fprintln(h.out, "algorithms pay O(Iₙ·K²) per iteration for the Historical term and row")
	fmt.Fprintln(h.out, "solves, while spCP-stream pays only O(|nz|·K² + K³).")
	return h.writeCSV("crossover", []string{"dim", "zero_row_frac", "optimized_s", "spcp_s", "gain"}, rows)
}
