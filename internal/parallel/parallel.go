// Package parallel provides the shared-memory parallel primitives used by
// every kernel in this repository: a persistent worker pool (Pool) with a
// static blocked parallel-for, stable worker identifiers, per-worker
// reduction helpers, and a striped mutex pool.
//
// The package mirrors the scheduling semantics of the OpenMP constructs
// used by the original CP-stream implementation: static chunking over an
// index range, one logical thread per chunk set, and deterministic
// per-thread partial results that are reduced in worker order. The
// package-level For/ForChunked/ReduceFloat64/ReduceVec are thin
// compatibility wrappers over the lazily-initialized default Pool;
// allocation-critical kernels use the Pool's ctx-style Do* primitives
// directly.
package parallel

import "runtime"

// DefaultWorkers returns the default degree of parallelism, which is
// GOMAXPROCS at the time of the call.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// clampWorkers normalizes a requested worker count: non-positive requests
// mean "use the default", and the count never exceeds n (no point waking
// more workers than units of work).
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Range describes the half-open index interval [Lo, Hi) assigned to one
// worker by a static partition.
type Range struct {
	Lo, Hi int
}

// WorkerRange returns worker w's share of the blocked static partition
// of [0, n) over active workers — the exact ranges the Pool's Do and
// DoReduceVecInto primitives hand their bodies. Exported so kernels
// that stream an index space in external pieces (the out-of-core MTTKRP
// path) can reproduce the in-memory partition boundaries, and with them
// the in-memory floating-point reduction order, bit for bit.
func WorkerRange(n, active, w int) Range {
	return workerRange(n, active, w)
}

// ClampWorkers normalizes a requested worker count the way every Pool
// primitive does: non-positive means DefaultWorkers, and the count never
// exceeds n. Exported alongside WorkerRange for external-partition
// kernels that must clamp identically to DoReduceVecInto.
func ClampWorkers(workers, n int) int {
	return clampWorkers(workers, n)
}

// Partition splits [0, n) into at most workers contiguous ranges of
// near-equal size. Fewer ranges are returned when n < workers. The
// partition is deterministic: worker w always receives the same range for
// the same (n, workers) pair.
func Partition(n, workers int) []Range {
	workers = clampWorkers(workers, n)
	if n <= 0 {
		return nil
	}
	ranges := make([]Range, 0, workers)
	base := n / workers
	rem := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		if size == 0 {
			continue
		}
		ranges = append(ranges, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return ranges
}

// For executes body over a static partition of [0, n) using the given
// number of workers. Each worker w invokes body exactly once with its
// assigned range and its stable worker id (0 ≤ w < workers). When
// workers == 1 (or n is small) the body runs on the calling goroutine,
// so single-threaded runs have no scheduling overhead. Dispatches
// through the default Pool.
func For(n, workers int, body func(w int, r Range)) {
	Default().For(n, workers, body)
}

// ForChunked executes body over [0, n) in fixed-size chunks distributed
// round-robin across workers. Unlike For, a worker may receive several
// non-adjacent chunks; this approximates OpenMP's schedule(static, chunk)
// and is used where load per index is highly skewed (e.g. nonzeros sorted
// by coordinate). Dispatches through the default Pool.
func ForChunked(n, workers, chunk int, body func(w int, r Range)) {
	Default().ForChunked(n, workers, chunk, body)
}

// ReduceFloat64 runs body on a static partition of [0, n); each worker
// returns a float64 partial, and the partials are summed in worker order
// so the floating-point reduction order is deterministic for a fixed
// worker count. Dispatches through the default Pool.
func ReduceFloat64(n, workers int, body func(w int, r Range) float64) float64 {
	return Default().ReduceFloat64(n, workers, body)
}

// ReduceVec is like ReduceFloat64 but each worker produces a fixed-length
// vector partial (e.g. per-column norms). Worker w writes into its own
// slice; the partials are then summed element-wise in worker order into a
// freshly allocated result. Dispatches through the default Pool.
func ReduceVec(n, workers, dim int, body func(w int, r Range, acc []float64)) []float64 {
	return Default().ReduceVec(n, workers, dim, body)
}

// WeightedBoundaries statically assigns weighted segments to workers.
// cum is the cumulative weight array of the segments: segment s has
// weight cum[s+1]−cum[s], so len(cum) == nSeg+1 and cum[0] == 0. The
// returned slice has active+1 entries with boundaries[0] == 0 and
// boundaries[active] == nSeg; worker w owns segments
// [boundaries[w], boundaries[w+1]), chosen so each worker's summed
// weight is near total/active — worker w's range ends at the first
// segment where the cumulative weight reaches (w+1)·total/active.
// Whole segments only, so a segment is never split across workers.
//
// buf is reused when its capacity suffices (pass nil to allocate). The
// assignment depends only on (cum, active) — not on how many workers
// actually execute — which is what lets callers keep results
// bit-identical across worker counts. cum is int32 for in-memory plans
// and int64 for the streamed kernel, whose slices may exceed 2³¹
// nonzeros.
func WeightedBoundaries[W int32 | int64](buf []int32, cum []W, active int) []int32 {
	nSeg := len(cum) - 1
	if active > nSeg {
		active = nSeg
	}
	if active < 1 {
		active = 1
	}
	if cap(buf) < active+1 {
		buf = make([]int32, active+1)
	}
	b := buf[:active+1]
	b[0] = 0
	total := int(cum[nSeg])
	w := 1
	for s := 0; s < nSeg && w < active; s++ {
		c := int(cum[s+1])
		for w < active && c*active >= w*total {
			b[w] = int32(s + 1)
			w++
		}
	}
	for ; w <= active; w++ {
		b[w] = int32(nSeg)
	}
	// A boundary may overshoot a later one when a huge segment crosses
	// several quota marks; make the sequence monotone.
	for i := 1; i <= active; i++ {
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	return b
}
