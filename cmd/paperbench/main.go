// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Soh et al., IPDPS 2021, §VI).
//
// Two modes are supported:
//
//   - model (default): kernel and algorithm times are predicted by the
//     calibrated performance model (internal/perfmodel) on the paper's
//     56-core quad-socket testbed, sweeping the paper's thread counts
//     {1,7,14,28,56}. This reproduces the *shapes* of Figs. 2–8
//     regardless of how many cores the current host has.
//   - measure: the real Go kernels run on this host with a worker-count
//     sweep up to GOMAXPROCS, and wall-clock per-iteration times are
//     reported. On a many-core host this measures true scaling; on a
//     single-core container it degenerates to overhead measurement.
//
// Usage:
//
//	paperbench -exp all            # every experiment, model mode
//	paperbench -exp fig4 -mode measure -scale 0.2
//	paperbench -exp table1 -rank 16
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"spstream/internal/version"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: all, table1, table2, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fitlog, crossover, calibrate, threshold")
		mode       = flag.String("mode", "model", "model (paper-testbed performance model) or measure (wall clock on this host)")
		scale      = flag.Float64("scale", 0.3, "synthetic dataset scale (1 = benchmark size)")
		rank       = flag.Int("rank", 16, "decomposition rank for table1")
		slices     = flag.Int("slices", 4, "slices to run per measurement")
		maxProc    = flag.Int("maxworkers", 0, "cap for the measured worker sweep (0 = GOMAXPROCS)")
		csvDir     = flag.String("csv", "", "also write raw per-experiment series as CSV files into this directory (model mode)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (useful with -mode measure)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		showVer    = flag.Bool("version", false, "print version/build information and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("paperbench", version.String())
		return
	}

	stopProfiles := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(2)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	writeMemProfile := func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
		}
		f.Close()
	}

	h := &harness{
		mode:       *mode,
		scale:      *scale,
		rank:       *rank,
		slices:     *slices,
		maxWorkers: *maxProc,
		csvDir:     *csvDir,
		out:        os.Stdout,
	}
	if err := h.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}

	experiments := map[string]func() error{
		"table1":    h.table1,
		"table2":    h.table2,
		"fig1":      h.fig1,
		"fig2":      h.fig2,
		"fig3":      h.fig3,
		"fig4":      h.fig4,
		"fig5":      h.fig5,
		"fig6":      h.fig6,
		"fig7":      h.fig7,
		"fig8":      h.fig8,
		"fitlog":    h.fitlog,
		"crossover": h.crossover,
		"calibrate": h.calibrate,
		"threshold": h.threshold,
	}
	// threshold is excluded from "all": it is a host measurement
	// (minutes of wall clock), run explicitly via `-exp threshold`.
	order := []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fitlog", "crossover", "calibrate"}

	var run []string
	if *exp == "all" {
		run = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := experiments[name]; !ok {
				known := make([]string, 0, len(experiments))
				for k := range experiments {
					known = append(known, k)
				}
				sort.Strings(known)
				fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (known: all, %s)\n", name, strings.Join(known, ", "))
				os.Exit(2)
			}
			run = append(run, name)
		}
	}
	for _, name := range run {
		if err := experiments[name](); err != nil {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	stopProfiles()
	writeMemProfile()
}
