package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"spstream/internal/baselines"
	"spstream/internal/core"
	"spstream/internal/csf"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// The bench experiment is the reproducible benchmark pipeline behind
// `make bench`: it times the three factor-mode MTTKRP kernels (lock,
// coordinate plan, tiled CSF) and full end-to-end slices under each
// kernel policy on fixed synthetic configs, and emits the results as
// machine-readable JSON (BENCH_PR<n>.json). The newest committed copy
// of that file is the regression baseline CI compares fresh runs
// against (advisory: >10% slowdowns warn, they do not fail the build —
// shared runners are too noisy for a hard gate).

// benchRecord is one benchmark measurement. Name is the stable identity
// compare runs match on.
type benchRecord struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`   // "kernel" or "slice"
	Config      string  `json:"config"` // synthetic config name
	Kernel      string  `json:"kernel"` // lock|plan|csf, or the slice policy auto|plan|csf
	Mode        int     `json:"mode"`   // target mode; -1 for slice benches
	Rank        int     `json:"rank"`
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// GFLOPS is the effective rate at nnz·K·N flops per MTTKRP (one
	// K-wide multiply chain over the N−1 source modes plus the
	// accumulate, per nonzero). Zero for slice benches.
	GFLOPS float64 `json:"gflops,omitempty"`
	// LiveHeapBytes / PeakHeapBytes are the out-of-core experiment's
	// memory evidence (ooc records only): post-GC live-heap delta and
	// sampled heap high-water delta over the pre-run baseline.
	LiveHeapBytes int64 `json:"live_heap_bytes,omitempty"`
	PeakHeapBytes int64 `json:"peak_heap_bytes,omitempty"`
}

// benchFile is the JSON document. CSFBestSpeedup is the best
// CSF-over-plan kernel ratio observed anywhere in the grid — the
// headline number the PR's acceptance criterion (≥1.3× on at least one
// config) reads directly.
type benchFile struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Baseline names the committed bench file this run was compared
	// against when it was produced (the -compare flag), so a committed
	// BENCH_PR<n>.json records its own lineage.
	Baseline       string        `json:"baseline,omitempty"`
	CSFBestSpeedup float64       `json:"csf_best_speedup"`
	CSFBestAt      string        `json:"csf_best_at"`
	Records        []benchRecord `json:"records"`
}

// benchConfig is one synthetic workload of the grid. The four configs
// pin the regimes the kernel selector discriminates: a short leading
// mode (heavy output-row sharing, the plan's worst case), a uniform
// cube (both kernels comfortable), a duplicate-heavy slice whose
// coalesced fiber tree is much smaller than its nonzero count (CSF's
// best case), and a skewed slice with long, sparsely-touched modes,
// where per-slice activity covers a small hot fraction of huge factor
// matrices.
type benchConfig struct {
	name  string
	dists []synth.IndexDist
	nnz   int
}

func benchConfigs() []benchConfig {
	return []benchConfig{
		{"shortmode", []synth.IndexDist{synth.Uniform{N: 32}, synth.Uniform{N: 3000}, synth.Uniform{N: 3000}}, 200000},
		{"cube", []synth.IndexDist{synth.Uniform{N: 800}, synth.Uniform{N: 800}, synth.Uniform{N: 800}}, 200000},
		{"dupheavy", []synth.IndexDist{synth.NewZipf(24, 0.5), synth.NewZipf(1100, 0.9), synth.NewZipf(1700, 0.9)}, 300000},
		{"skewed", []synth.IndexDist{
			synth.NewZipf(40000, 1.1),
			synth.Clustered{N: 60000, Window: 1500, Drift: 900, Revisit: 0.2},
			synth.NewZipf(50000, 1.05),
		}, 200000},
	}
}

var benchRanks = []int{16, 32}

// benchSlices generates the config's stream (a few slices, fixed seed).
func benchSlices(cfg benchConfig, t int) ([]*sptensor.Tensor, []int, error) {
	sc := synth.Config{Name: cfg.name, Dists: cfg.dists, T: t, NNZPerSlice: cfg.nnz, Seed: 17}
	s, err := synth.Generate(sc)
	if err != nil {
		return nil, nil, err
	}
	return s.Slices, s.Dims, nil
}

// benchSelected filters the grid by the -benchconfigs flag (empty =
// all).
func (h *harness) benchSelected() ([]benchConfig, error) {
	all := benchConfigs()
	if h.benchOnly == "" {
		return all, nil
	}
	byName := make(map[string]benchConfig, len(all))
	for _, c := range all {
		byName[c.name] = c
	}
	var out []benchConfig
	for _, name := range strings.Split(h.benchOnly, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown bench config %q", name)
		}
		out = append(out, c)
	}
	return out, nil
}

// bench runs the kernel + end-to-end grid and writes the JSON.
func (h *harness) bench() error {
	h.header("Bench — MTTKRP kernel and end-to-end slice pipeline",
		"reproducible regression baseline; kernel grid backs the cost-model selector")
	doc := benchFile{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Baseline: h.benchCompare}
	cfgs, err := h.benchSelected()
	if err != nil {
		return err
	}
	workers := h.measureWorkers()

	// --- kernel grid ---------------------------------------------------
	fmt.Fprintf(h.out, "\nkernel grid (%d trials each):\n", 1)
	fmt.Fprintf(h.out, "%-10s %5s %5s %8s %-6s %14s %12s %10s %9s\n",
		"config", "mode", "rank", "workers", "kernel", "ns/op", "B/op", "allocs/op", "GFLOP/s")
	for _, cfg := range cfgs {
		slices, dims, err := benchSlices(cfg, 2)
		if err != nil {
			return err
		}
		x := slices[len(slices)-1]
		n := len(dims)
		for _, k := range benchRanks {
			factors := randomFactors(dims, k, 23)
			for _, w := range workers {
				pool := parallel.NewPool(w)
				for mode := 0; mode < n; mode++ {
					out := dense.NewMatrix(dims[mode], k)
					flops := float64(x.NNZ()) * float64(k) * float64(n)
					for _, kernel := range []string{"lock", "plan", "csf"} {
						r := benchKernelOnce(kernel, x, factors, out, mode, w, pool)
						rec := benchRecord{
							Name: fmt.Sprintf("kernel/%s/mode%d/k%d/w%d/%s", cfg.name, mode, k, w, kernel),
							Kind: "kernel", Config: cfg.name, Kernel: kernel,
							Mode: mode, Rank: k, Workers: w,
							NsPerOp:     float64(r.NsPerOp()),
							BytesPerOp:  r.AllocedBytesPerOp(),
							AllocsPerOp: r.AllocsPerOp(),
							GFLOPS:      flops / float64(r.NsPerOp()),
						}
						doc.Records = append(doc.Records, rec)
						fmt.Fprintf(h.out, "%-10s %5d %5d %8d %-6s %14.0f %12d %10d %9.3f\n",
							cfg.name, mode, k, w, kernel, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, rec.GFLOPS)
					}
					// Track the best CSF-over-plan ratio for the summary.
					nr := len(doc.Records)
					plan, csfRec := doc.Records[nr-2], doc.Records[nr-1]
					if ratio := plan.NsPerOp / csfRec.NsPerOp; ratio > doc.CSFBestSpeedup {
						doc.CSFBestSpeedup = ratio
						doc.CSFBestAt = csfRec.Name
					}
				}
				pool.Close()
			}
		}
	}
	fmt.Fprintf(h.out, "\nbest CSF speedup over plan: %.2fx at %s\n", doc.CSFBestSpeedup, doc.CSFBestAt)

	// --- end-to-end slices ---------------------------------------------
	// Optimized CP-stream over the same configs under each forced policy
	// plus Auto; the selector check is that Auto never loses to the best
	// forced kernel by more than measurement slack.
	fmt.Fprintf(h.out, "\nend-to-end slices (optimized CP-stream, %d inner iters, min of %d interleaved trials):\n", 4, e2eTrials)
	fmt.Fprintf(h.out, "%-10s %5s %8s %-14s %14s\n", "config", "rank", "workers", "policy", "ns/slice")
	pols := e2ePolicies()
	w := workers[len(workers)-1]
	for _, cfg := range cfgs {
		slices, dims, err := benchSlices(cfg, 3)
		if err != nil {
			return err
		}
		for _, k := range benchRanks {
			best := make([]float64, len(pols))
			for i := range best {
				best[i] = math.Inf(1)
			}
			// Interleave the policies within each trial and rotate the
			// starting policy per trial: back-to-back runs of the same
			// policy share correlated scheduler and cache state, and a
			// fixed order hands later policies a warmer process. The
			// rotation distributes any position effect evenly, so the
			// per-policy minima are comparable.
			for tr := 0; tr < e2eTrials; tr++ {
				for po := range pols {
					pi := (po + tr) % len(pols)
					pol := pols[pi]
					opt := core.Options{Rank: k, Algorithm: core.Optimized, Workers: w,
						Seed: 9, MaxIters: 4, Tol: 0, MTTKRPKernel: pol.kernel}
					d, err := benchSliceOnce(dims, slices, opt)
					if err != nil {
						return err
					}
					if ns := float64(d.Nanoseconds()) / float64(len(slices)); ns < best[pi] {
						best[pi] = ns
					}
				}
			}
			perPolicy := make(map[string]float64, len(pols))
			for pi, pol := range pols {
				perPolicy[pol.name] = best[pi]
				rec := benchRecord{
					Name: fmt.Sprintf("slice/%s/k%d/w%d/%s", cfg.name, k, w, pol.name),
					Kind: "slice", Config: cfg.name, Kernel: pol.name,
					Mode: -1, Rank: k, Workers: w, NsPerOp: best[pi],
				}
				doc.Records = append(doc.Records, rec)
				fmt.Fprintf(h.out, "%-10s %5d %8d %-14s %14.0f\n",
					cfg.name, k, w, pol.name, best[pi])
			}
			bestForced := perPolicy["plan"]
			if perPolicy["csf"] < bestForced {
				bestForced = perPolicy["csf"]
			}
			if perPolicy["auto"] > bestForced*1.10 {
				fmt.Fprintf(h.out, "WARN: %s k=%d: auto policy (%.0f ns) regresses %.0f%% vs best forced kernel (%.0f ns)\n",
					cfg.name, k, perPolicy["auto"], 100*(perPolicy["auto"]/bestForced-1), bestForced)
			}
		}
	}

	// --- emit + compare ------------------------------------------------
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

// benchKernelOnce times one (kernel, mode) cell. Per-slice compile work
// (plan build, CSF tree build) happens outside the timed loop — the
// kernel grid measures steady-state inner-iteration cost; build costs
// show up in the end-to-end slice benches.
func benchKernelOnce(kernel string, x *sptensor.Tensor, factors []*dense.Matrix, out *dense.Matrix, mode, w int, pool *parallel.Pool) testing.BenchmarkResult {
	switch kernel {
	case "lock":
		c := baselines.NewLockKernels(w)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Lock(out, x, factors, mode)
			}
		})
	case "plan":
		c := mttkrp.NewComputer(w)
		plan := c.NewPlan(x)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.PlanMTTKRP(out, plan, factors, mode)
			}
		})
	default: // csf
		eng := csf.NewEngineWithPool(w, pool)
		eng.Begin(x)
		eng.Build(mode)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.MTTKRP(out, factors, mode)
			}
		})
	}
}

// e2eTrials is the trial count for the end-to-end slice grid; the
// minimum over interleaved, rotation-ordered trials is reported.
const e2eTrials = 4

// e2ePolicy is one end-to-end run configuration: a named kernel policy.
type e2ePolicy struct {
	name   string
	kernel core.MTTKRPKernel
}

// e2ePolicies returns the end-to-end grid: the adaptive selector and
// each forced kernel.
func e2ePolicies() []e2ePolicy {
	return []e2ePolicy{
		{"auto", core.KernelAuto},
		{"plan", core.KernelPlan},
		{"csf", core.KernelCSF},
	}
}

// benchSliceOnce runs the stream once through a fresh decomposer and
// returns the wall time. Per-slice Pre work (kernel selection, layout
// builds) is inside the measurement; construction is too, matching
// earlier baselines.
func benchSliceOnce(dims []int, slices []*sptensor.Tensor, opt core.Options) (time.Duration, error) {
	start := time.Now()
	dec, err := core.NewDecomposer(dims, opt)
	if err != nil {
		return 0, err
	}
	for _, x := range slices {
		if _, err := dec.ProcessSlice(x); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// compareBench diffs the fresh run against a committed baseline,
// benchstat-style but advisory: regressions beyond 10% print WARN lines
// and never fail the run (exit stays 0) — CI runners are too noisy for
// a hard benchmark gate, but the warnings make regressions visible in
// the job log.
func compareBench(h *harness, fresh *benchFile) error {
	data, err := os.ReadFile(h.benchCompare)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("compare baseline %s: %w", h.benchCompare, err)
	}
	byName := make(map[string]benchRecord, len(base.Records))
	for _, r := range base.Records {
		byName[r.Name] = r
	}
	fmt.Fprintf(h.out, "\ncomparison vs %s (advisory, threshold +10%%):\n", h.benchCompare)
	regressions, matched := 0, 0
	for _, r := range fresh.Records {
		b, ok := byName[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		matched++
		delta := r.NsPerOp/b.NsPerOp - 1
		if delta > 0.10 {
			regressions++
			fmt.Fprintf(h.out, "WARN: %-45s %+6.1f%% (%.0f → %.0f ns/op)\n", r.Name, 100*delta, b.NsPerOp, r.NsPerOp)
		}
	}
	if regressions == 0 {
		fmt.Fprintf(h.out, "no regressions beyond 10%% across %d matched benchmarks\n", matched)
	} else {
		fmt.Fprintf(h.out, "%d of %d matched benchmarks regressed beyond 10%% (advisory only)\n", regressions, matched)
	}
	return nil
}

// benchcmp prints a per-config speedup table between two committed
// bench files (`make benchcmp OLD=BENCH_PR5.json NEW=BENCH_PR6.json`).
// Only records present in both files are compared, so the table is
// apples-to-apples even when the newer file adds configs or policies.
func (h *harness) benchcmpExp() error {
	if h.cmpOld == "" || h.cmpNew == "" {
		return fmt.Errorf("benchcmp needs -old and -new bench JSON files")
	}
	old, err := readBenchFile(h.cmpOld)
	if err != nil {
		return err
	}
	fresh, err := readBenchFile(h.cmpNew)
	if err != nil {
		return err
	}
	h.header(fmt.Sprintf("Benchcmp — %s vs %s", h.cmpOld, h.cmpNew),
		"per-config speedup of matched records (old ns / new ns; >1 is faster)")

	byName := make(map[string]benchRecord, len(old.Records))
	for _, r := range old.Records {
		byName[r.Name] = r
	}
	type row struct {
		rec     benchRecord
		oldNs   float64
		speedup float64
	}
	perConfig := map[string][]row{}
	var configs []string
	for _, r := range fresh.Records {
		b, ok := byName[r.Name]
		if !ok || b.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		if _, seen := perConfig[r.Config]; !seen {
			configs = append(configs, r.Config)
		}
		perConfig[r.Config] = append(perConfig[r.Config], row{r, b.NsPerOp, b.NsPerOp / r.NsPerOp})
	}
	sort.Strings(configs)
	matched := 0
	for _, cfg := range configs {
		rows := perConfig[cfg]
		fmt.Fprintf(h.out, "\n%s:\n", cfg)
		fmt.Fprintf(h.out, "  %-45s %14s %14s %9s\n", "name", "old ns/op", "new ns/op", "speedup")
		logSum, sliceLogSum, slices := 0.0, 0.0, 0
		for _, rw := range rows {
			fmt.Fprintf(h.out, "  %-45s %14.0f %14.0f %8.2fx\n", rw.rec.Name, rw.oldNs, rw.rec.NsPerOp, rw.speedup)
			logSum += math.Log(rw.speedup)
			if rw.rec.Kind == "slice" {
				sliceLogSum += math.Log(rw.speedup)
				slices++
			}
		}
		matched += len(rows)
		fmt.Fprintf(h.out, "  geomean %.3fx over %d records", math.Exp(logSum/float64(len(rows))), len(rows))
		if slices > 0 {
			fmt.Fprintf(h.out, " (end-to-end slices: %.3fx over %d)", math.Exp(sliceLogSum/float64(slices)), slices)
		}
		fmt.Fprintln(h.out)
	}
	if matched == 0 {
		return fmt.Errorf("no records matched between %s and %s", h.cmpOld, h.cmpNew)
	}
	return nil
}

// readBenchFile loads a bench results JSON document.
func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
