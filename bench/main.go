// Command bench is the repository benchmark: six workloads, each with a
// different module in the hot seat, measured from outside through the
// exported functions of the packages and the HTTP surface of a real
// spstreamd child. See README.md in this directory.
//
//	go run -C bench .                        every workload, untraced
//	go run -C bench . -trace spans.json      … then again with spans on
//	go run -C bench . -workload nips-uncon   one workload
//	go run -C bench . -runs 3 -out a.json    repeat, keep the results
//	go run -C bench . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload and end with the one-line JSON result the acceptance driver reads")
		seed     = fs.Uint64("seed", 17, "workload seed: the only source of randomness in the inputs")
		seconds  = fs.Int("seconds", runSeconds, "how long each workload measures")
		traceTo  = fs.String("trace", "0", "0: untraced; 1: traced run (per-layer metrics); a path: traced run, spans written there")
		runs     = fs.Int("runs", 1, "repeat the set this many times and print median and quartiles")
		out      = fs.String("out", "", "write the full results (host descriptor, every run) to this JSON file")
		quick    = fs.Bool("quick", false, "tiny inputs (scale 0.05, T=4, 10 windows): a smoke run of all six workloads")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		resultTo = fs.String("result", "", "with -workload: also write the full results to this file (how the full run collects its children)")
		describe = fs.Bool("describe", false, "print BENCHMARK.json as the code defines it (workloads, metrics, bounds) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		return printBenchmarkJSON(stdout)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments")
		return 2
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	nproc := runtime.NumCPU()
	workers := min(nproc, 4)
	runtime.GOMAXPROCS(workers)
	env := &runEnv{
		seed: *seed, duration: time.Duration(*seconds) * time.Second,
		workers: workers, daemonProcs: max(1, nproc-1), quick: *quick,
	}
	env.dir = filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(env.dir)

	// An interrupt cancels the run; children are stopped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ws := workloads(*quick)
	traced := *traceTo != "0" && *traceTo != ""
	b := &bench{root: root, env: env, ws: ws, stdout: stdout, stderr: stderr}
	if *name != "" {
		w := findWorkload(ws, *name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return b.driverRun(ctx, *w, traced, spanPath(*traceTo), *resultTo)
	}
	return b.fullRun(ctx, *runs, traced, spanPath(*traceTo), *out)
}

// spanPath is where spans go: nowhere for "-trace 0" and "-trace 1".
func spanPath(flagValue string) string {
	if flagValue == "0" || flagValue == "1" {
		return ""
	}
	return flagValue
}

// buildDir holds everything the benchmark builds or writes, inside the
// checkout and ignored by git.
const buildDir = ".bench_build"

// repoRoot finds the spstream module this benchmark measures: the
// parent of the bench directory (go run -C bench) or the working
// directory itself.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module spstream\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no spstream module at %s or its parent: run from the repository root or from bench/", wd)
}

// bench is one invocation of the command.
type bench struct {
	root           string
	env            *runEnv
	ws             []workload
	stdout, stderr io.Writer
}

// runWorkload runs one workload once, untraced (tr == nil) or traced.
func (b *bench) runWorkload(ctx context.Context, w workload, tr *tracer) (*result, error) {
	var (
		res *result
		err error
	)
	if w.batch != nil {
		res, err = runBatch(ctx, b.env, w, tr)
	} else {
		if err = b.buildDaemon(ctx); err != nil {
			return nil, err
		}
		res, err = runServe(ctx, b.env, w, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Traced = tr != nil
	return res, nil
}

// driverLine is the acceptance driver's result format.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is "-workload W": one workload, human-readable progress on
// stderr, and the result as the last line of stdout. Untraced it
// carries every end-to-end metric; traced, every per-layer metric —
// the measuring time is then split between an untraced half (the
// reference for bench.trace_overhead_pct and the source of the bench.*
// metrics) and the traced half.
func (b *bench) driverRun(ctx context.Context, w workload, traced bool, spans, resultTo string) int {
	line := driverLine{Metrics: map[string]driverValue{}}
	var results []*result
	if !traced {
		res, err := b.runWorkload(ctx, w, nil)
		if err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return 1
		}
		results = append(results, res)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = driverValue{res.Metrics[m.Name], m.Unit}
		}
	} else {
		b.env.duration /= 2
		tr := newTracer()
		un, tc, err := b.tracedPair(ctx, w, tr)
		if err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return 1
		}
		results = append(results, un, tc)
		for _, m := range perLayer {
			line.Metrics[m.Name] = driverValue{tc.PerLayer[m.Name], m.Unit} // 0 where the workload does not exercise the layer
		}
		if spans != "" {
			if err := tr.write(spans); err != nil {
				fmt.Fprintln(b.stderr, "bench:", err)
				return 1
			}
		}
	}
	line.Correct = true
	for _, r := range results {
		printResult(b.stderr, r)
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	if resultTo != "" {
		if err := writeResults(resultTo, results); err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return 1
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(b.stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(b.stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// tracedPair runs w untraced and then traced, folds the untraced
// run's bench.* metrics and the host and build numbers into the traced
// result, and applies the gates that need both passes.
func (b *bench) tracedPair(ctx context.Context, w workload, tr *tracer) (un, tc *result, err error) {
	if b.env.hostTriadGBs == 0 {
		b.env.hostTriadGBs = triad(b.env.workers, b.env.quick)
	}
	if un, err = b.runWorkload(ctx, w, nil); err != nil {
		return nil, nil, err
	}
	if tc, err = b.runWorkload(ctx, w, tr); err != nil {
		return nil, nil, err
	}
	if u, t := un.PerLayer["bench.fit_final"], tc.PerLayer["bench.fit_final"]; u != t {
		tc.violate("fit_final differs between the untraced pass (%.17g) and the traced pass (%.17g)", u, t)
	}
	for k, v := range un.PerLayer {
		if strings.HasPrefix(k, "bench.") || strings.HasPrefix(k, "ingest.") {
			tc.PerLayer[k] = v // measured untraced, on the real child for serve-*
		}
	}
	tc.PerLayer["bench.failed_ratio"] = un.failedRatio()
	tc.PerLayer["bench.build_s"] = b.env.buildSeconds
	tc.PerLayer["host.nproc"] = float64(runtime.NumCPU())
	tc.PerLayer["host.triad_gbs"] = b.env.hostTriadGBs
	ref, got := un.Metrics["slice_ms_p25"], tc.Metrics["slice_ms_p25"]
	if ref > 0 {
		over := 100 * (got - ref) / ref
		tc.PerLayer["bench.trace_overhead_pct"] = over
		if over > 3 {
			tc.flag("tracing overhead %.1f%% of slice_ms_p25 exceeds 3%%", over)
		}
	}
	return un, tc, nil
}
