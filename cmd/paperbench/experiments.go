package main

import (
	"fmt"

	"spstream/internal/perfmodel/sim"
	"spstream/internal/roofline"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// table1 prints the ADMM operation cost model (paper Table I) plus the
// fused totals of §IV-A.
func (h *harness) table1() error {
	h.header("Table I — ADMM compute and memory costs per operation",
		"Table I; §IV-A blocked & fused totals")
	i, k := int64(100000), int64(h.rank)
	fmt.Fprintf(h.out, "I=%d K=%d (words are 8-byte doubles)\n\n", i, k)
	fmt.Fprintf(h.out, "%-10s %15s %15s %15s %10s\n", "operation", "flops", "read(words)", "write(words)", "AI(f/B)")
	for _, c := range roofline.ADMMBaselineCosts(i, k) {
		fmt.Fprintf(h.out, "%-10s %15d %15d %15d %10.4f\n", c.Name, c.Flops, c.Read, c.Write, c.Intensity())
	}
	tot := roofline.ADMMBaselineTotal(i, k)
	fused := roofline.ADMMFusedTotal(i, k)
	fmt.Fprintf(h.out, "%-10s %15d %15d %15d %10.4f\n", "total", tot.Flops, tot.Read, tot.Write, tot.Intensity())
	fmt.Fprintf(h.out, "%-10s %15d %15d %15d %10.4f\n", "BF total", fused.Flops, fused.Read, fused.Write, fused.Intensity())
	fmt.Fprintf(h.out, "\nfusion eliminates %.1f%% of memory traffic (paper: \"more than 30%%\")\n",
		100*roofline.TrafficReduction(i, k))
	fmt.Fprintf(h.out, "baseline: 19IK+2IK² flops, 22IK+K² words — matches Table I\n")
	fmt.Fprintf(h.out, "fused:    18IK+2IK² flops, 15IK+K² words — matches §IV-A\n")
	return nil
}

// table2 prints the synthetic dataset inventory next to the FROSTT
// originals (paper Table II).
func (h *harness) table2() error {
	h.header("Table II — datasets (synthetic analogues of the FROSTT originals)",
		"Table II")
	paper := map[string]string{
		"patents": "year(46)ˢ × 239K × 239K, 3.5B nnz",
		"flickr":  "320K × 28M × 1.6M × date(731)ˢ, 113M nnz",
		"uber":    "date(183)ˢ × 24 × 1.1K × 1.7K, 3.3M nnz",
		"nips":    "2.5K × 2.9K × 14K × year(7)ˢ, 3.1M nnz",
	}
	for _, name := range []string{"patents", "flickr", "uber", "nips"} {
		s, err := h.stream(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(h.out, "%-8s paper: %s\n", name, paper[name])
		fmt.Fprintf(h.out, "%-8s here:  dims=%v T=%d nnz=%d (scale %g, streaming mode = slice sequence)\n\n",
			"", s.Dims, s.T(), s.NNZ(), h.scale)
	}
	return nil
}

// fig1 prints per-mode nonzero histograms for a mid-stream Flickr
// slice (paper Fig. 1: the image mode is clustered; others are spread).
func (h *harness) fig1() error {
	h.header("Fig. 1 — histogram of nonzero indices per mode, Flickr mid-stream slice",
		"Fig. 1 (time slice 500 of Flickr)")
	s, err := h.stream("flickr")
	if err != nil {
		return err
	}
	x := s.Slices[s.T()/2]
	const bins = 48
	for mode := 0; mode < x.NModes(); mode++ {
		hist := sptensor.Histogram(x, mode, bins)
		maxC := 0
		for _, c := range hist {
			if c > maxC {
				maxC = c
			}
		}
		st := sptensor.StatsForMode(x, mode)
		fmt.Fprintf(h.out, "mode %d (dim %d, %d nz rows, %.1f%% zero rows, span %.2f):\n",
			mode, st.Dim, st.NonzeroRows, 100*st.ZeroRowFrac, sptensor.OccupiedSpan(x, mode, bins))
		for b, c := range hist {
			fmt.Fprintf(h.out, "  [%2d] %7d %s\n", b, c, bar(c, maxC, 40))
		}
	}
	fmt.Fprintln(h.out, "\nexpected shape: mode 1 (image) occupies a narrow index band; modes 0/2 spread across the range")
	return nil
}

// fig2 compares Blocked & Fused ADMM to the baseline on NIPS for ranks
// 16 and 32 across the thread sweep.
func (h *harness) fig2() error {
	h.header("Fig. 2 — Blocked & Fused ADMM vs baseline, NIPS",
		"Fig. 2 (paper speedups: rank16 2.0→8.1; rank32 1.8→12.3)")
	if h.mode == "measure" {
		return h.measureFig2()
	}
	prof, err := h.profile("nips")
	if err != nil {
		return err
	}
	mo := h.perfModel()
	var rows [][]string
	for _, k := range []int{16, 32} {
		fmt.Fprintf(h.out, "\nrank %d:\n%8s %14s %14s %10s\n", k, "threads", "baseline(s)", "BF(s)", "speedup")
		for _, p := range paperThreads {
			base, bf := 0.0, 0.0
			for _, m := range prof.Modes {
				base += mo.ADMMIterTime(sim.ADMMBaseline, m.Dim, k, p)
				bf += mo.ADMMIterTime(sim.ADMMBlockedFused, m.Dim, k, p)
			}
			fmt.Fprintf(h.out, "%8d %14.6f %14.6f %9.1fx\n", p, base, bf, base/bf)
			rows = append(rows, []string{itoa(k), itoa(p), ftoa(base), ftoa(bf), ftoa(base / bf)})
		}
	}
	return h.writeCSV("fig2", []string{"rank", "threads", "baseline_s", "bf_s", "speedup"}, rows)
}

// fig3 reports ADMM and MTTKRP speedups at full thread count across
// datasets and ranks.
func (h *harness) fig3() error {
	h.header("Fig. 3 — kernel speedups at 56 threads across datasets and ranks",
		"Fig. 3 (paper rank16: ADMM 17.1/8.1/3.3, MTTKRP 50.3/30.6/7.9 for Patents/NIPS/Uber)")
	if h.mode == "measure" {
		return h.measureFig3()
	}
	mo := h.perfModel()
	var rows [][]string
	fmt.Fprintf(h.out, "%6s %-8s %12s %14s\n", "rank", "dataset", "ADMM", "MTTKRP")
	for _, k := range paperRanks {
		for _, name := range []string{"patents", "nips", "uber"} {
			prof, err := h.profile(name)
			if err != nil {
				return err
			}
			base, bf := 0.0, 0.0
			for _, m := range prof.Modes {
				base += mo.ADMMIterTime(sim.ADMMBaseline, m.Dim, k, 56)
				bf += mo.ADMMIterTime(sim.ADMMBlockedFused, m.Dim, k, 56)
			}
			lock := mo.MTTKRPTime(sim.MTTKRPLock, prof, k, 56) + mo.TimeModeUpdateTime(prof, k, 56, true)
			hl := mo.MTTKRPTime(sim.MTTKRPHybrid, prof, k, 56) + mo.TimeModeUpdateTime(prof, k, 56, false)
			fmt.Fprintf(h.out, "%6d %-8s %11.1fx %13.1fx\n", k, name, base/bf, lock/hl)
			rows = append(rows, []string{itoa(k), name, ftoa(base / bf), ftoa(lock / hl)})
		}
	}
	return h.writeCSV("fig3", []string{"rank", "dataset", "admm_speedup", "mttkrp_speedup"}, rows)
}

// fig4 compares Hybrid Lock MTTKRP to the baseline on NIPS across the
// thread sweep for ranks 16 and 128.
func (h *harness) fig4() error {
	h.header("Fig. 4 — Hybrid Lock MTTKRP vs baseline, NIPS",
		"Fig. 4 (paper speedups: rank16 1.2→30.6; rank128 1.4→24.1; baseline degrades with threads)")
	if h.mode == "measure" {
		return h.measureFig4()
	}
	prof, err := h.profile("nips")
	if err != nil {
		return err
	}
	mo := h.perfModel()
	var rows [][]string
	for _, k := range []int{16, 128} {
		fmt.Fprintf(h.out, "\nrank %d:\n%8s %14s %14s %10s\n", k, "threads", "baseline(s)", "HL(s)", "speedup")
		for _, p := range paperThreads {
			lock := mo.MTTKRPTime(sim.MTTKRPLock, prof, k, p) + mo.TimeModeUpdateTime(prof, k, p, true)
			hl := mo.MTTKRPTime(sim.MTTKRPHybrid, prof, k, p) + mo.TimeModeUpdateTime(prof, k, p, false)
			fmt.Fprintf(h.out, "%8d %14.6f %14.6f %9.1fx\n", p, lock, hl, lock/hl)
			rows = append(rows, []string{itoa(k), itoa(p), ftoa(lock), ftoa(hl), ftoa(lock / hl)})
		}
	}
	return h.writeCSV("fig4", []string{"rank", "threads", "baseline_s", "hl_s", "speedup"}, rows)
}

// fig5 reports the overall constrained CP-stream speedup (BF-ADMM +
// HL-MTTKRP vs baseline) at 56 threads.
func (h *harness) fig5() error {
	h.header("Fig. 5 — optimized constrained CP-stream speedup at 56 threads",
		"Fig. 5 (paper rank16: 47.0/21.5/5.1 for Patents/NIPS/Uber; falls with rank)")
	if h.mode == "measure" {
		return h.measureFig5()
	}
	mo := h.perfModel()
	admmIters, err := h.estimateADMMIters()
	if err != nil {
		return err
	}
	fmt.Fprintf(h.out, "(ADMM iterations per mode update estimated from a real constrained run: %d)\n\n", admmIters)
	fmt.Fprintf(h.out, "%6s %-8s %10s\n", "rank", "dataset", "speedup")
	var rows [][]string
	for _, k := range paperRanks {
		for _, name := range []string{"patents", "nips", "uber"} {
			prof, err := h.profile(name)
			if err != nil {
				return err
			}
			b := mo.ConstrainedIterTime(sim.AlgBaseline, prof, k, 56, 6, admmIters)
			o := mo.ConstrainedIterTime(sim.AlgOptimized, prof, k, 56, 6, admmIters)
			fmt.Fprintf(h.out, "%6d %-8s %9.1fx\n", k, name, b/o)
			rows = append(rows, []string{itoa(k), name, ftoa(b / o)})
		}
	}
	return h.writeCSV("fig5", []string{"rank", "dataset", "speedup"}, rows)
}

// fig6 compares spCP-stream and optimized CP-stream to the baseline
// (non-constrained) on NIPS across the thread sweep.
func (h *harness) fig6() error {
	h.header("Fig. 6 — non-constrained: spCP-stream vs optimized vs baseline, NIPS",
		"Fig. 6 (paper rank16 at 56thr: optimized 18.8x, spCP 31.9x; rank128: 10.4x / 12.0x)")
	if h.mode == "measure" {
		return h.measureNonConstrained([]string{"nips"}, []int{16, 128})
	}
	return h.modelNonConstrained("fig6", []string{"nips"}, []int{16, 128})
}

// fig7 is the rank-16 version of fig6 on the remaining datasets.
func (h *harness) fig7() error {
	h.header("Fig. 7 — non-constrained comparison, Patents/Uber/Flickr, rank 16",
		"Fig. 7 (paper at 56thr: Patents N/B 102.2 O/B 54.2; Uber 18.4/6.8; Flickr 14.9/1.9)")
	if h.mode == "measure" {
		return h.measureNonConstrained([]string{"patents", "uber", "flickr"}, []int{16})
	}
	return h.modelNonConstrained("fig7", []string{"patents", "uber", "flickr"}, []int{16})
}

func (h *harness) modelNonConstrained(exp string, datasets []string, ranks []int) error {
	mo := h.perfModel()
	var rows [][]string
	for _, name := range datasets {
		prof, err := h.profile(name)
		if err != nil {
			return err
		}
		for _, k := range ranks {
			fmt.Fprintf(h.out, "\n%s rank %d:\n%8s %12s %12s %12s %8s %8s\n",
				name, k, "threads", "baseline(s)", "optimized(s)", "spCP(s)", "N/B", "O/B")
			for _, p := range paperThreads {
				b := mo.IterTime(sim.AlgBaseline, prof, k, p, 6)
				o := mo.IterTime(sim.AlgOptimized, prof, k, p, 6)
				n := mo.IterTime(sim.AlgSpCP, prof, k, p, 6)
				fmt.Fprintf(h.out, "%8d %12.6f %12.6f %12.6f %7.1fx %7.1fx\n", p, b, o, n, b/n, b/o)
				rows = append(rows, []string{name, itoa(k), itoa(p), ftoa(b), ftoa(o), ftoa(n)})
			}
		}
	}
	return h.writeCSV(exp, []string{"dataset", "rank", "threads", "baseline_s", "optimized_s", "spcp_s"}, rows)
}

// fig8 prints the per-iteration execution time breakdown for Flickr.
func (h *harness) fig8() error {
	h.header("Fig. 8 — per-iteration time breakdown, Flickr rank 16, 56 threads",
		"Fig. 8 (Historical dominates optimized; spCP eliminates it; paper speedups 14.9/7.7/1.0)")
	if h.mode == "measure" {
		return h.measureFig8()
	}
	mo := h.perfModel()
	prof, err := h.profile("flickr")
	if err != nil {
		return err
	}
	algs := []sim.AlgKind{sim.AlgBaseline, sim.AlgOptimized, sim.AlgSpCP}
	base := mo.IterTime(sim.AlgBaseline, prof, 16, 56, 6)
	fmt.Fprintf(h.out, "%-12s %10s %8s", "algorithm", "total(ms)", "speedup")
	for ph := 0; ph < trace.NumPhases; ph++ {
		fmt.Fprintf(h.out, " %10s", trace.Phase(ph))
	}
	fmt.Fprintln(h.out)
	var rows [][]string
	for _, alg := range algs {
		bd := mo.IterBreakdown(alg, prof, 16, 56, 6)
		fmt.Fprintf(h.out, "%-12s %10.3f %7.1fx", alg, bd.Total()*1e3, base/bd.Total())
		row := []string{alg.String(), ftoa(bd.Total())}
		for ph := 0; ph < trace.NumPhases; ph++ {
			fmt.Fprintf(h.out, " %10.4f", bd[ph]*1e3)
			row = append(row, ftoa(bd[ph]))
		}
		fmt.Fprintln(h.out)
		rows = append(rows, row)
	}
	fmt.Fprintln(h.out, "(columns in ms; Historical = cross-Grams + A_{t-1}·Q term)")
	header := []string{"algorithm", "total_s"}
	for ph := 0; ph < trace.NumPhases; ph++ {
		header = append(header, trace.Phase(ph).String())
	}
	return h.writeCSV("fig8", header, rows)
}
