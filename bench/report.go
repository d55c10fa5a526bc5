package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// report is the -out file: the host, the settings, and every run.
type report struct {
	Host    hostDesc       `json:"host"`
	Seed    uint64         `json:"seed"`
	Seconds int            `json:"seconds"`
	Quick   bool           `json:"quick"`
	T       map[string]int `json:"t_per_workload"`
	Runs    []*result      `json:"runs"`
}

// asMainEnv makes a test binary behave as the bench command (see
// TestMain): the full run re-executes itself once per workload.
const asMainEnv = "SPSTREAM_BENCH_AS_MAIN"

// childRun runs one workload in a process of its own — the way the
// acceptance driver does — so that peak RSS, heap state and the pool
// belong to that workload alone, and returns its results (one untraced,
// or an untraced reference and a traced one).
func (b *bench) childRun(ctx context.Context, w workload, seconds int, trace string) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	resultPath := filepath.Join(b.env.dir, w.name+".result.json")
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatUint(b.env.seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-result", resultPath,
	}
	if b.env.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Dir = b.root
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Stderr = b.stderr // the child's progress and violations
	runErr := cmd.Run()
	data, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", w.name, runErr)
	}
	var results []*result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return results, nil // a non-zero exit with a result file is a gate violation, carried in the results
}

// fullRun is the command without -workload: every workload, untraced,
// -runs times; with -trace, the last set's children go on to run the
// workload again with spans on (a traced child measures untraced first,
// then traced, each for the full -seconds). It prints every end-to-end
// metric by name and unit and exits non-zero on any correctness
// violation.
func (b *bench) fullRun(ctx context.Context, runs int, traced bool, spans, out string) int {
	seconds := int(b.env.duration.Seconds())
	rep := report{Seed: b.env.seed, Seconds: seconds, Quick: b.env.quick, T: map[string]int{}}
	ok := true
	var all []span
	for r := 0; r < runs; r++ {
		for _, w := range b.ws {
			secs, trace := seconds, "0"
			if traced && r == runs-1 {
				secs, trace = 2*seconds, filepath.Join(b.env.dir, w.name+".spans.json")
			}
			results, err := b.childRun(ctx, w, secs, trace)
			if err != nil {
				fmt.Fprintln(b.stderr, "bench:", err)
				return 1
			}
			for _, res := range results {
				rep.Runs = append(rep.Runs, res)
				rep.T[res.Workload] = res.T
				ok = ok && res.correct()
			}
			var part []span
			if data, err := os.ReadFile(trace); err == nil && json.Unmarshal(data, &part) == nil {
				all = appendSpans(all, part)
			}
		}
	}
	if traced && spans != "" {
		data, err := json.Marshal(all)
		if err == nil {
			err = os.WriteFile(spans, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return 1
		}
	}
	rep.Host = describeHost(b.root, b.env)
	rep.Host.TriadArrayBytes = triadArrayBytes(rep.Quick)
	for _, r := range rep.Runs {
		if v, found := r.PerLayer["host.triad_gbs"]; found {
			rep.Host.TriadGBs = v
		}
	}
	if rep.Host.TriadGBs == 0 { // an untraced set: no child measured it
		rep.Host.TriadGBs = triad(b.env.workers, rep.Quick)
	}
	printReport(b.stdout, &rep, all)
	if out != "" {
		data, err := json.MarshalIndent(&rep, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(b.stdout, "FAIL: correctness gate violated (see above)")
		return 1
	}
	return 0
}

// appendSpans adds one workload's spans to the combined trace, moving
// their ids past the ones already there.
func appendSpans(all, part []span) []span {
	off := len(all)
	for _, s := range part {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		all = append(all, s)
	}
	return all
}

// series collects a metric's values over the runs of one workload.
func series(runs []*result, workload, metric string, traced bool) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if x, ok := r.Metrics[metric]; ok && !traced {
			v = append(v, x)
		} else if x, ok := r.PerLayer[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

func workloadNames(runs []*result) []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// printResult prints one run: every end-to-end metric by name and
// unit with its sample count, the per-layer numbers, and whatever the
// gates and health checks found.
func printResult(w io.Writer, r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d, T=%d): attempted %d, failed %d (failed_ratio %.3g)\n",
		r.Workload, kind, r.Seed, r.T, r.Attempted, r.Failed, r.failedRatio())
	for _, m := range endToEnd {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue // a traced serve run has no process of its own to weigh
		}
		n := ""
		if c := r.Samples[m.Name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-16s %14.6g %-6s%s\n", m.Name, v, m.Unit, n)
	}
	keys := make([]string, 0, len(r.PerLayer))
	for k := range r.PerLayer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "    %-34s %14.6g %s\n", k, r.PerLayer[k], unitOf(k))
	}
	if r.KernelSchedule != "" {
		fmt.Fprintf(w, "    kernel schedule of the last slice: %s\n", r.KernelSchedule)
	}
	for _, v := range r.Invalid {
		fmt.Fprintln(w, "  INVALID:", v)
	}
	for _, v := range r.Violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// printReport prints the run set: per workload every end-to-end metric
// (median and quartiles over the runs), then the per-layer medians,
// then per-layer self time from the spans when the set was traced.
func printReport(w io.Writer, rep *report, spans []span) {
	h := rep.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS bench %d / daemon %d, %s, commit %s, triad %.1f GB/s (arrays %d MiB, LLC %d MiB)\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.DaemonGOMAXPROCS, h.GoVersion, h.GitCommit, h.TriadGBs, h.TriadArrayBytes>>20, h.LLCBytes>>20)
	fmt.Fprintf(w, "seed %d, %d s per workload\n", rep.Seed, rep.Seconds)
	for _, name := range workloadNames(rep.Runs) {
		fmt.Fprintf(w, "\n%s (T=%d)\n", name, rep.T[name])
		fmt.Fprintf(w, "  %-36s %14s %14s %14s  %-6s %s\n", "end-to-end metric", "median", "q1", "q3", "unit", "runs")
		for _, m := range endToEnd {
			v := series(rep.Runs, name, m.Name, false)
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(w, "  %-36s %14.6g %14.6g %14.6g  %-6s %d\n", m.Name, q2, q1, q3, m.Unit, len(v))
		}
		fmt.Fprintf(w, "  %-36s %14s\n", "per-layer metric", "median")
		for _, m := range perLayer {
			v := series(rep.Runs, name, m.Name, true)
			if len(v) == 0 {
				v = series(rep.Runs, name, m.Name, false)
			}
			if len(v) > 0 {
				fmt.Fprintf(w, "  %-36s %14.6g  %s\n", m.Name, median(v), m.Unit)
			}
		}
		if self := layerSelfMS(spans, name); len(self) > 0 {
			layers := make([]string, 0, len(self))
			for l := range self {
				layers = append(layers, l)
			}
			sort.Strings(layers)
			fmt.Fprintf(w, "  self time by layer (ms, from spans):")
			for _, l := range layers {
				fmt.Fprintf(w, " %s=%.1f", l, self[l])
			}
			fmt.Fprintln(w)
		}
		for _, r := range rep.Runs {
			if r.Workload != name {
				continue
			}
			for _, v := range r.Invalid {
				fmt.Fprintln(w, "  INVALID:", v)
			}
			for _, v := range r.Violations {
				fmt.Fprintln(w, "  VIOLATION:", v)
			}
		}
	}
}

// verdict classifies one (workload, metric) pair of run sets by the
// rule of the choosing-metrics guide: a change beyond the bound is
// better or worse; within it, unchanged — but when either set's spread
// (IQR over median) is wider than the bound the pair is unresolved,
// unless every run of B reads better than every run of A.
func verdict(m metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	// Orient both sets so that larger is worse.
	cost := func(v []float64) []float64 {
		c := sorted(v)
		if m.Better == "higher" {
			for i, j := 0, len(c)-1; i <= j; i, j = i+1, j-1 {
				c[i], c[j] = -c[j], -c[i]
			}
		}
		return c
	}
	ca, cb := cost(a), cost(b)
	ma, mb := percentile(ca, 50), percentile(cb, 50)
	worseBy := (mb - ma) / math.Abs(ma)
	spread := func(v []float64) float64 {
		q1, q2, q3 := quartiles(v)
		return (q3 - q1) / math.Abs(q2)
	}
	wide := spread(a) > m.Bound || spread(b) > m.Bound
	allBetter := cb[len(cb)-1] < ca[0]
	allWorse := cb[0] > ca[len(ca)-1]
	switch {
	case worseBy > m.Bound && (!wide || allWorse):
		return "worse"
	case worseBy < -m.Bound && (!wide || allBetter):
		return "better"
	case wide && allBetter:
		return "better"
	case wide:
		return "unresolved"
	default:
		return "unchanged"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both medians, the ratio with its base, the bound and the verdict;
// then the per-layer medians side by side, which never gate. The exit
// code is 1 when any row is worse.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	load := func(p string) (*report, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "A = %s (%s, commit %s)\nB = %s (%s, commit %s)\n\n", pathA, a.Host.CPUModel, a.Host.GitCommit, pathB, b.Host.CPUModel, b.Host.GitCommit)
	fmt.Fprintf(stdout, "%-14s %-17s %12s %12s  %-26s %6s  %s\n", "workload", "metric", "A median", "B median", "ratio", "bound", "verdict")
	worse := 0
	for _, name := range workloadNames(a.Runs) {
		for _, m := range endToEnd {
			va, vb := series(a.Runs, name, m.Name, false), series(b.Runs, name, m.Name, false)
			v := verdict(m, va, vb)
			if v == "worse" {
				worse++
			}
			ma, mb := median(va), median(vb)
			ratio := fmt.Sprintf("%.3f x A's %.5g %s", mb/ma, ma, m.Unit)
			fmt.Fprintf(stdout, "%-14s %-17s %12.6g %12.6g  %-26s %5.0f%%  %s\n", name, m.Name, ma, mb, ratio, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(stdout, "\nper-layer metrics (informational, never gate; counts should repeat exactly)\n")
	fmt.Fprintf(stdout, "%-14s %-34s %14s %14s %9s\n", "workload", "metric", "A median", "B median", "B/A")
	for _, name := range workloadNames(a.Runs) {
		for _, m := range perLayer {
			pick := func(r *report) []float64 {
				if v := series(r.Runs, name, m.Name, true); len(v) > 0 {
					return v
				}
				return series(r.Runs, name, m.Name, false)
			}
			va, vb := pick(a), pick(b)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			note := ""
			if exactMetrics[m.Name] && ma != mb {
				note = "  DIFFERS (expected exact)"
			}
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3f", mb/ma)
			}
			fmt.Fprintf(stdout, "%-14s %-34s %14.6g %14.6g %9s%s\n", name, m.Name, ma, mb, ratio, note)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "\n%d end-to-end metric(s) worse beyond their bound\n", worse)
		return 1
	}
	return 0
}

// exactMetrics repeat bit for bit between runs of the same code at the
// same seed; -compare marks a difference.
var exactMetrics = map[string]bool{
	"bench.fit_final": true, "core.inner_iters": true, "bench.failed_ratio": true,
}

// writeResults is "-result path": the child's results for the parent.
func writeResults(path string, results []*result) error {
	data, err := json.Marshal(results)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
