// Package parallel provides the shared-memory parallel primitives every
// kernel in this repository runs on: a persistent worker pool (Pool)
// whose one operation, Do, is a static blocked parallel-for with stable
// worker identifiers; SumBlocks, the merge of a block-keyed reduction;
// and WeightedBoundaries, a static partition of weighted segments.
//
// The package mirrors the scheduling of the OpenMP parallel loops of the
// original CP-stream implementation, static chunking over an index range,
// but not its per-thread reductions: a kernel that sums keeps one partial
// per fixed block of its index space and merges them in block order, so
// its bits depend on the block size alone and never on the worker count.
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

// ClampWorkers normalizes a requested worker count the way Pool.Do
// does: non-positive means DefaultWorkers, and the count never exceeds
// n. Callers that size per-worker scratch use it.
func ClampWorkers(workers, n int) int {
	return clampWorkers(workers, n)
}

// SumBlocks sets dst to the element-wise sum of the len(dst)-long block
// partials laid end to end in parts, added from zero in ascending block
// order: the merge of a block-keyed reduction, whose bits therefore
// depend on the block size alone, never on the worker count that filled
// parts.
func SumBlocks(dst, parts []float64) {
	clear(dst)
	for n := len(dst); n > 0 && len(parts) > 0; parts = parts[n:] {
		for i, v := range parts[:n] {
			dst[i] += v
		}
	}
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
