package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run
// measures unless -seconds says otherwise.
const runSeconds = 10

// metricDef is one named metric. End-to-end metrics carry the bound by
// which they may worsen before a change counts as a regression; a
// per-layer metric's name starts with its layer, and README.md ("Per-
// layer metrics") says which end-to-end number it is predicted to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd is what a library user and an spstreamd operator feel.
// Every workload reports every one of them (the acceptance contract
// requires it), so each is defined on both call paths:
//
//	slice_ms_p25      batch: lower quartile of the wall time of one slice call.
//	                  serve-steady: lower quartile of the commit lag (due
//	                  time of the POST carrying a window's last event →
//	                  first read showing it).
//	                  serve-burst: lower quartile of the interval between
//	                  observed commits, i.e. window / saturation throughput.
//	peak_rss_mb       batch: VmHWM of the bench process. serve: of the daemon.
//
// The lower quartile, not the median, because on a shared 2-vCPU host
// interference only ever adds time, in bursts that last seconds: over
// repeated runs of one binary on one input the median of ten slices
// moves by 6 % and their lower quartile by 1.6 %. The median, the mean
// throughput and the CPU time per slice are per-layer metrics
// (bench.slice_ms_p50, bench.nnz_per_s, bench.cpu_ms_per_slice).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "slice_ms_p25", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is what the traced run reports. A workload that does not
// exercise a layer reports 0 for its metrics (the contract requires
// every name on every workload); README.md says which workloads
// exercise which layer and which end-to-end number each metric is
// predicted to move.
var perLayer = []metricDef{
	// core: Breakdown() deltas per timed slice or window.
	{Name: "core.pre_ms", Unit: "ms", Better: "lower"},
	{Name: "core.post_ms", Unit: "ms", Better: "lower"},
	{Name: "core.update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.inverse_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mttkrp_ms", Unit: "ms", Better: "lower"},
	{Name: "core.gram_ms", Unit: "ms", Better: "lower"},
	{Name: "core.historical_ms", Unit: "ms", Better: "lower"},
	{Name: "core.error_ms", Unit: "ms", Better: "lower"},
	{Name: "core.misc_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.inner_iters", Unit: "count", Better: "lower"},
	{Name: "core.state_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.savestate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.slice_ms_w1", Unit: "ms", Better: "lower"},
	{Name: "core.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.workers_rel_diff", Unit: "ratio", Better: "lower"},
	{Name: "core.explicit_over_spcp", Unit: "ratio", Better: "higher"},
	{Name: "core.peak_heap_mb", Unit: "MB", Better: "lower"},
	// mttkrp: direct calls on a middle slice with the decomposer's factors.
	{Name: "mttkrp.plan_compile_ms", Unit: "ms", Better: "lower"},
	{Name: "mttkrp.plan_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "mttkrp.timemode_ms", Unit: "ms", Better: "lower"},
	{Name: "mttkrp.remap_begin_ms", Unit: "ms", Better: "lower"},
	{Name: "mttkrp.gather_scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "mttkrp.stream_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "mttkrp.gflops", Unit: "GF/s", Better: "higher"},
	{Name: "mttkrp.bytes_per_nnz_computed", Unit: "bytes", Better: "lower"},
	{Name: "mttkrp.bw_fraction", Unit: "ratio", Better: "higher"},
	{Name: "csf.build_ms", Unit: "ms", Better: "lower"},
	{Name: "csf.mttkrp_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "csf.nodes_per_nnz", Unit: "ratio", Better: "lower"},
	{Name: "perfmodel.profile_ms", Unit: "ms", Better: "lower"},
	{Name: "perfmodel.select_regret", Unit: "ratio", Better: "lower"},
	{Name: "perfmodel.remapped_share", Unit: "ratio", Better: "higher"},
	{Name: "perfmodel.streamed_share", Unit: "ratio", Better: "higher"},
	{Name: "admm.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "admm.iters_per_solve", Unit: "count", Better: "lower"},
	{Name: "admm.ns_per_row_iter", Unit: "ns", Better: "lower"},
	{Name: "admm.bw_fraction", Unit: "ratio", Better: "higher"},
	{Name: "dense.gram_ms", Unit: "ms", Better: "lower"},
	{Name: "dense.gram_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "dense.chol_us", Unit: "us", Better: "lower"},
	{Name: "dense.solverows_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "parallel.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "sptensor.window_add_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "ooc.open_ms", Unit: "ms", Better: "lower"},
	{Name: "ooc.block_read_mbs", Unit: "MB/s", Better: "higher"},
	{Name: "ooc.blocks_per_slice", Unit: "count", Better: "lower"},
	{Name: "ooc.file_bytes", Unit: "bytes", Better: "lower"},
	{Name: "resilience.guard_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "ingest.admit_us", Unit: "us", Better: "lower"},
	{Name: "ingest.queue_high_water", Unit: "count", Better: "lower"},
	{Name: "ingest.spilled", Unit: "count", Better: "lower"},
	{Name: "ingest.shed", Unit: "count", Better: "lower"},
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.append_mbs", Unit: "MB/s", Better: "higher"},
	{Name: "wal.replay_mbs", Unit: "MB/s", Better: "higher"},
	// serve: the in-process server of the traced run, Handler() wrapped.
	{Name: "serve.parse_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "serve.ingest_handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.reconstruct_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.factors_read_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.status_2xx", Unit: "count", Better: "higher"},
	{Name: "serve.status_429", Unit: "count", Better: "lower"},
	{Name: "serve.status_503", Unit: "count", Better: "lower"},
	{Name: "cluster.partition_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cluster.forward_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.merge_factors_ms", Unit: "ms", Better: "lower"},
	// bench.*: what the generator and the bench itself observe on the
	// untraced half of a traced run, among them the issue's end-to-end
	// candidates that are defined on only some workloads (README,
	// "Demoted metrics").
	{Name: "bench.fit_final", Unit: "ratio", Better: "higher"},
	{Name: "bench.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.alloc_mb_per_slice", Unit: "MB", Better: "lower"},
	{Name: "bench.nnz_per_s", Unit: "nnz/s", Better: "higher"},
	{Name: "bench.cpu_ms_per_slice", Unit: "ms", Better: "lower"},
	{Name: "bench.slice_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.commit_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.slice_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "bench.slice_tail_pct", Unit: "%", Better: "higher"},
	{Name: "bench.read_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.read_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "bench.read_tail_pct", Unit: "%", Better: "higher"},
	{Name: "bench.generator_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.build_s", Unit: "s", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.triad_gbs", Unit: "GB/s", Better: "higher"},
}

// printBenchmarkJSON renders BENCHMARK.json from the tables above and
// the workload list, so the file at the repository root is generated,
// not maintained by hand: go run -C bench . -describe > BENCHMARK.json
func printBenchmarkJSON(w io.Writer) int {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: runSeconds,
	}
	for _, wl := range workloads(false) {
		doc.Workloads = append(doc.Workloads, named{wl.name, wl.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(data))
	return 0
}
