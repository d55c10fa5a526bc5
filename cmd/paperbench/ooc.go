package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"spstream/internal/core"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor/ooc"
	"spstream/internal/synth"
)

// The ooc experiment is the out-of-core acceptance measurement behind
// `make bench-ooc`: it proves that the streamed evaluation path holds
// peak heap flat while the slice's nonzero count grows 100×, and that
// streaming costs at most a bounded throughput factor on inputs that
// would have fit in memory anyway.
//
// Protocol: a fixed-shape synthetic slice is generated at 1×, 10× and
// 100× the base nonzero count, written to .spblk block files, and the
// in-memory copy is dropped before each measurement. Each run opens the
// block file cold and processes it through a fresh decomposer with
// core.Options.MemBudget set, while a sampler goroutine tracks the
// heap high-water mark (runtime.ReadMemStats). Two checks follow:
//
//   - HARD: on every streamed run under the real budget, the heap
//     high-water delta over the pre-run baseline must stay within
//     1.25× of the budget. A violation fails the experiment (and the
//     CI job running it) — flat memory is the point of the subsystem,
//     not an advisory nicety.
//   - Advisory: on the 1× config (which fits in RAM), forced-streamed
//     throughput must be ≥ 0.6× the in-memory path; below that a WARN
//     prints, mirroring compareBench's noisy-runner policy.
//
// Results are appended to the bench JSON (Kind "ooc"), so a committed
// BENCH_PR<n>.json can carry the kernel grid and the out-of-core
// evidence in one regression baseline: existing non-ooc records in the
// -benchjson file are preserved, prior ooc records are replaced.

// oocBudget is the resident-memory budget handed to the decomposer for
// the scaled runs. Chosen so the 1× slice fits in memory (its estimated
// resident size is ~4 MB) while 10× and 100× must stream.
const oocBudget = 16 << 20

// oocBaseNNZ is the 1× nonzero count. 100× is 5M nonzeros — ~400 MB
// estimated resident, 25× the budget.
const oocBaseNNZ = 50_000

// oocRun is one measured decomposition of a block file.
type oocRun struct {
	name     string // record name, e.g. "ooc/x10/stream"
	scale    int
	budget   int64              // Options.MemBudget for this run
	want     perfmodel.EvalMode // expected selector verdict
	enforce  bool               // apply the 1.25×budget heap ceiling
	trials   int                // wall-clock trials (min is reported)
	nnz      int
	wall     time.Duration
	liveB    int64 // post-GC live-heap delta after the run
	peakB    int64 // sampled HeapAlloc high-water delta during the run
	evalMode perfmodel.EvalMode
	resident float64 // share of the slice's permutations and blocks kept between passes
}

func (h *harness) ooc() error {
	h.header("Out-of-core — flat memory at 100× nonzeros (streamed evaluation)",
		"hard gate: heap high-water ≤ 1.25× -mem-budget on streamed runs")

	dims := []int{1200, 900, 700}
	rank := h.rank
	dir, err := os.MkdirTemp("", "spstream-ooc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Generate and write the scaled block files up front, then drop the
	// in-memory tensors so generation garbage cannot pollute the
	// per-run heap baselines.
	scales := []int{1, 10, 100}
	paths := make(map[int]string, len(scales))
	for _, sc := range scales {
		nnz := oocBaseNNZ * sc
		cfg := synth.Config{
			Name: "oocflat",
			Dists: []synth.IndexDist{
				synth.Uniform{N: dims[0]}, synth.Uniform{N: dims[1]}, synth.Uniform{N: dims[2]},
			},
			T: 1, NNZPerSlice: nnz, Seed: 29,
		}
		s, err := synth.Generate(cfg)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("x%d.spblk", sc))
		if err := ooc.WriteTensor(path, s.Slices[0], 0); err != nil {
			return err
		}
		paths[sc] = path
		fmt.Fprintf(h.out, "wrote %s: nnz=%d est-resident=%s\n",
			filepath.Base(path), nnz, fmtBytes(perfmodel.ResidentBytes(nnz, len(dims))))
	}
	runtime.GC()

	runs := []*oocRun{
		// 1× both ways: the throughput-ratio pair. Budget 0 keeps the
		// selector on the in-memory path; budget 1 forces streaming.
		{name: "ooc/x1/inmem", scale: 1, budget: 0, want: perfmodel.EvalInMemory, trials: 2},
		{name: "ooc/x1/stream", scale: 1, budget: 1, want: perfmodel.EvalStreamed, trials: 2},
		// The flat-memory sweep under the real budget.
		{name: "ooc/x10/stream", scale: 10, budget: oocBudget, want: perfmodel.EvalStreamed, enforce: true, trials: 1},
		{name: "ooc/x100/stream", scale: 100, budget: oocBudget, want: perfmodel.EvalStreamed, enforce: true, trials: 1},
	}

	fmt.Fprintf(h.out, "\nbudget=%s  ceiling=%s  rank=%d  iters=%d  workers=%d\n\n",
		fmtBytes(oocBudget), fmtBytes(oocBudget+oocBudget/4), rank, 4, runtime.GOMAXPROCS(0))
	fmt.Fprintf(h.out, "%-16s %10s %-13s %12s %10s %12s %12s\n",
		"run", "nnz", "eval", "wall", "Mnnz/s", "live-heap", "peak-heap")

	for _, r := range runs {
		if err := h.oocMeasure(r, dims, rank, paths[r.scale]); err != nil {
			return err
		}
		eval := r.evalMode.String()
		if r.evalMode == perfmodel.EvalStreamed {
			eval = fmt.Sprintf("%s %.0f%%", eval, 100*r.resident)
		}
		fmt.Fprintf(h.out, "%-16s %10d %-13s %12s %10.2f %12s %12s\n",
			r.name, r.nnz, eval, r.wall.Round(time.Millisecond),
			float64(r.nnz)/1e6/r.wall.Seconds(),
			fmtBytes(r.liveB), fmtBytes(r.peakB))
	}

	// Hard gate: flat memory on the streamed runs under the real budget.
	ceiling := int64(oocBudget) + int64(oocBudget)/4
	var violations []string
	for _, r := range runs {
		if r.enforce && r.peakB > ceiling {
			violations = append(violations, fmt.Sprintf(
				"%s: heap high-water %s exceeds 1.25× budget (%s)", r.name, fmtBytes(r.peakB), fmtBytes(ceiling)))
		}
	}
	x10, x100 := runs[2], runs[3]
	fmt.Fprintf(h.out, "\nflatness: peak heap %s at 10× → %s at 100× (nnz grew 10×, budget %s)\n",
		fmtBytes(x10.peakB), fmtBytes(x100.peakB), fmtBytes(oocBudget))
	if len(violations) == 0 {
		fmt.Fprintf(h.out, "PASS: all streamed runs within 1.25× of the memory budget\n")
	}

	// Advisory throughput ratio on the fits-in-RAM config.
	inmem, forced := runs[0], runs[1]
	ratio := inmem.wall.Seconds() / forced.wall.Seconds()
	fmt.Fprintf(h.out, "streamed/in-memory throughput at 1×: %.2fx (in-memory %s, streamed %s)\n",
		ratio, inmem.wall.Round(time.Millisecond), forced.wall.Round(time.Millisecond))
	if ratio < 0.6 {
		fmt.Fprintf(h.out, "WARN: streamed throughput below 0.6× of in-memory on a fits-in-RAM slice (advisory)\n")
	}

	if err := h.oocEmit(runs, rank); err != nil {
		return err
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(h.out, "FAIL: %s\n", v)
		}
		return fmt.Errorf("out-of-core memory gate failed: %d streamed run(s) over budget", len(violations))
	}
	return nil
}

// oocMeasure processes one block file through a fresh decomposer,
// reporting the min wall time over r.trials and the heap profile of the
// last trial. The baseline is the post-GC live heap with the block file
// open but the decomposer not yet built, so factor state, kernel
// scratch and block buffers all count against the budget.
func (h *harness) oocMeasure(r *oocRun, dims []int, rank int, path string) error {
	r.wall = time.Duration(1<<62 - 1)
	for trial := 0; trial < r.trials; trial++ {
		br, err := ooc.Open(path)
		if err != nil {
			return err
		}
		r.nnz = br.NNZ()

		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		stop := oocHeapSampler()

		start := time.Now()
		// KernelPlan on both paths: the streamed kernels are the plan's
		// bit-identical twins, so this is the apples-to-apples
		// configuration for the throughput ratio.
		dec, err := core.NewDecomposer(dims, core.Options{
			Rank: rank, Algorithm: core.Optimized, MTTKRPKernel: core.KernelPlan,
			Seed: 9, MaxIters: 4, Tol: 0, MemBudget: r.budget,
		})
		if err != nil {
			br.Close()
			stop()
			return err
		}
		if _, err := dec.ProcessBlockSlice(br); err != nil {
			br.Close()
			stop()
			return fmt.Errorf("%s: %w", r.name, err)
		}
		wall := time.Since(start)
		high := stop()

		r.evalMode, r.resident = dec.LastEvalMode(), dec.LastResidency().Share()
		if r.evalMode != r.want {
			br.Close()
			return fmt.Errorf("%s: selector chose %s, expected %s (nnz=%d budget=%d)",
				r.name, r.evalMode, r.want, r.nnz, r.budget)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if wall < r.wall {
			r.wall = wall
		}
		r.liveB = heapDelta(ms.HeapAlloc, base)
		r.peakB = heapDelta(high, base)
		br.Close()
	}
	return nil
}

// oocHeapSampler polls HeapAlloc in the background and returns a stop
// function yielding the high-water mark. Sampling (10 ms) rides on top
// of the GC's own trigger points, so short allocation bursts between
// samples can hide — the post-GC live measurement is the stable floor,
// the sampled peak the observable ceiling.
func oocHeapSampler() (stop func() uint64) {
	var (
		high uint64
		done = make(chan struct{})
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > high {
					high = ms.HeapAlloc
				}
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return high
	}
}

func heapDelta(now, base uint64) int64 {
	if now <= base {
		return 0
	}
	return int64(now - base)
}

// oocEmit appends the runs to the bench JSON named by -benchjson,
// preserving any non-ooc records already in the file (so one committed
// BENCH_PR<n>.json can hold the kernel grid and the out-of-core
// evidence), then runs the advisory -compare diff.
func (h *harness) oocEmit(runs []*oocRun, rank int) error {
	doc := benchFile{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Baseline: h.benchCompare}
	if h.benchJSON != "" {
		if prev, err := readBenchFile(h.benchJSON); err == nil {
			doc.Baseline = prev.Baseline
			doc.CSFBestSpeedup = prev.CSFBestSpeedup
			doc.CSFBestAt = prev.CSFBestAt
			for _, rec := range prev.Records {
				if rec.Kind != "ooc" {
					doc.Records = append(doc.Records, rec)
				}
			}
		}
	}
	for _, r := range runs {
		kernel := "stream"
		if r.want == perfmodel.EvalInMemory {
			kernel = "inmem"
		}
		doc.Records = append(doc.Records, benchRecord{
			Name: r.name, Kind: "ooc", Config: "oocflat", Kernel: kernel,
			Mode: -1, Rank: rank, Workers: runtime.GOMAXPROCS(0),
			NsPerOp:       float64(r.wall.Nanoseconds()),
			LiveHeapBytes: r.liveB,
			PeakHeapBytes: r.peakB,
		})
	}
	if h.benchJSON != "" {
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(h.benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(h.out, "\nwrote %s (%d records)\n", h.benchJSON, len(doc.Records))
	}
	if h.benchCompare != "" {
		if err := compareBench(h, &doc); err != nil {
			return err
		}
	}
	return nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
