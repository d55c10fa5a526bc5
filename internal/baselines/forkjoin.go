package baselines

import "spstream/internal/parallel"

// The baselines' parallel loops: closures over the default pool's Do, in
// the shape of the paper's OpenMP loops. They allocate, and reduceVec sums
// per worker; both are part of what the baselines stand for.

func closureBody(ctx any, w int, r parallel.Range) { ctx.(func(w int, r parallel.Range))(w, r) }

// forRange runs body over the static blocked partition of [0, n).
func forRange(n, workers int, body func(w int, r parallel.Range)) {
	parallel.Default().Do(n, workers, body, closureBody)
}

// forChunked runs body over [0, n) in chunk-long pieces dealt round-robin
// to the workers (OpenMP schedule(static, chunk)); one worker gets the
// whole range in one call.
func forChunked(n, workers, chunk int, body func(w int, r parallel.Range)) {
	workers = parallel.ClampWorkers(workers, (n+chunk-1)/chunk)
	if workers == 1 {
		body(0, parallel.Range{Lo: 0, Hi: n})
		return
	}
	forRange(workers, workers, func(w int, _ parallel.Range) {
		for lo := w * chunk; lo < n; lo += workers * chunk {
			body(w, parallel.Range{Lo: lo, Hi: min(lo+chunk, n)})
		}
	})
}

// reduceVec returns the element-wise sum of the dim-long partials body
// accumulates over the workers' ranges of [0, n), added in worker order:
// deterministic for a fixed worker count, as the paper's per-thread
// reductions are.
func reduceVec(n, workers, dim int, body func(r parallel.Range, acc []float64)) []float64 {
	parts := make([]float64, parallel.ClampWorkers(workers, n)*dim)
	forRange(n, workers, func(w int, r parallel.Range) { body(r, parts[w*dim:(w+1)*dim]) })
	out := make([]float64, dim)
	parallel.SumBlocks(out, parts)
	return out
}
