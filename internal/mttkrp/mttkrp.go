// Package mttkrp implements the matricized-tensor-times-Khatri-Rao-
// product kernels the runtime executes: Sequential (the single-threaded
// reference every other kernel is tested against), the per-slice
// compiled Plan (plan.go) and the register panel under it (panel.go),
// the Remapper into the compact nz-row index space (remap.go), the
// block-streamed StreamKernel (stream.go), and TimeMode, the single-row
// MTTKRP behind the sₜ update (one partial per fixed nonzero span where
// the paper accumulates per thread, §IV-B).
// A Computer owns the reusable per-worker scratch, so per-iteration calls
// are allocation-free in steady state. The paper's lock-based kernels
// are in internal/baselines.
package mttkrp

import (
	"fmt"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// Computer holds reusable kernel state for a fixed worker count. All
// kernels dispatch through a persistent parallel.Pool; the ones that
// form a product row in memory (see scratch) keep it in a Computer-owned
// per-worker arena, so steady-state calls are allocation-free for any
// rank. A Plan's row-order copies are the Plan's own: a caller that
// recompiles one Plan per slice (CompilePlan) keeps the compile
// allocation-free too, and the worker count it partitions for is the
// Computer's.
type Computer struct {
	Workers int
	pool    *parallel.Pool

	// Per-worker scratch, kcap floats each: the rowProduct/timeModeRow
	// product row of the kernels that still form one — the N ≠ 3 bodies
	// of rowRun and timeRange. The three-way plan, stream and time-mode
	// kernels keep their panel in registers and never touch it.
	scratch [][]float64
	kcap    int

	// TimeMode's span partials, k floats per timeSpan nonzeros.
	parts []float64

	// Reusable kernel argument block passed as ctx to the pool bodies.
	args kernelArgs
}

// kernelArgs carries one kernel invocation's arguments through the pool
// without a closure. It is owned by the Computer and cleared after each
// call so factor matrices are not pinned between iterations.
type kernelArgs struct {
	c       *Computer
	out     *dense.Matrix
	x       *sptensor.Tensor
	factors []*dense.Matrix
	pm      *planMode
	mode    int
	k       int
}

func (a *kernelArgs) reset() {
	c := a.c
	*a = kernelArgs{c: c}
}

// NewComputer creates a Computer for the given worker count (≤0 means
// GOMAXPROCS), dispatching through the shared default pool.
func NewComputer(workers int) *Computer {
	return NewComputerWithPool(workers, parallel.Default())
}

// NewComputerWithPool is NewComputer on an explicit pool — used by tests
// and benchmarks that need a pool larger than GOMAXPROCS.
func NewComputerWithPool(workers int, pool *parallel.Pool) *Computer {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	c := &Computer{Workers: workers, pool: pool}
	c.args.c = c
	return c
}

// ensureScratch grows the per-worker scratch arenas to hold one rank-k
// row per worker. Amortized: after the first call at the largest rank,
// subsequent calls allocate nothing.
func (c *Computer) ensureScratch(k int) {
	if k > c.kcap {
		c.kcap = k
		for w := range c.scratch {
			c.scratch[w] = make([]float64, c.kcap)
		}
	}
	for len(c.scratch) < c.Workers {
		c.scratch = append(c.scratch, make([]float64, c.kcap))
	}
}

func checkArgs(out *dense.Matrix, dims []int, factors []*dense.Matrix, mode int) int {
	if len(factors) != len(dims) {
		panic(fmt.Sprintf("mttkrp: %d factors for %d modes", len(factors), len(dims)))
	}
	if mode < 0 || mode >= len(dims) {
		panic(fmt.Sprintf("mttkrp: mode %d out of range", mode))
	}
	k := factors[0].Cols
	for m, f := range factors {
		if f.Cols != k {
			panic("mttkrp: factor rank mismatch")
		}
		if f.Rows != dims[m] {
			panic(fmt.Sprintf("mttkrp: factor %d has %d rows for dim %d", m, f.Rows, dims[m]))
		}
	}
	if out.Rows != dims[mode] || out.Cols != k {
		panic("mttkrp: output shape mismatch")
	}
	return k
}

// rowProduct computes tmp[k] = val · ∏_{v≠mode} factors[v][idx_v][k] for
// nonzero e. Three-way tensors (the common case) take a fused fast path
// with a single write per element.
func rowProduct(tmp []float64, x *sptensor.Tensor, factors []*dense.Matrix, mode, e int, val float64) {
	if len(factors) == 3 {
		var a, b *dense.Matrix
		var ia, ib int
		switch mode {
		case 0:
			a, b = factors[1], factors[2]
			ia, ib = int(x.Inds[1][e]), int(x.Inds[2][e])
		case 1:
			a, b = factors[0], factors[2]
			ia, ib = int(x.Inds[0][e]), int(x.Inds[2][e])
		default:
			a, b = factors[0], factors[1]
			ia, ib = int(x.Inds[0][e]), int(x.Inds[1][e])
		}
		ra, rb := a.Row(ia), b.Row(ib)
		for k := range tmp {
			tmp[k] = val * ra[k] * rb[k]
		}
		return
	}
	for k := range tmp {
		tmp[k] = val
	}
	for v, f := range factors {
		if v == mode {
			continue
		}
		row := f.Row(int(x.Inds[v][e]))
		for k := range tmp {
			tmp[k] *= row[k]
		}
	}
}

// Sequential computes out = MTTKRP(x, factors, mode) on one thread.
func Sequential(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	k := checkArgs(out, x.Dims, factors, mode)
	out.Zero()
	tmp := make([]float64, k)
	col := x.Inds[mode]
	for e := 0; e < x.NNZ(); e++ {
		rowProduct(tmp, x, factors, mode, e, x.Vals[e])
		row := out.Row(int(col[e]))
		for j, v := range tmp {
			row[j] += v
		}
	}
}

// timeSpan is the nonzeros one time-mode partial sums: TimeMode cuts the
// nonzero range into spans of this constant length, sums each from zero
// into its own rank-k partial and adds the partials in span order
// (parallel.SumBlocks), so no bit depends on the worker count, nor, for
// StreamKernel.TimeMode, on the source's block sizes. A multiple of
// timeChunk.
const timeSpan = 4096

// TimeMode computes dst[k] = Σ_e val_e · ∏_v factors[v][i_v][k] — the
// streaming-mode MTTKRP whose output is a single row. Partials per span,
// not locks: with one output row, locking would serialize every update
// (paper §IV-B).
func (c *Computer) TimeMode(dst []float64, x *sptensor.Tensor, factors []*dense.Matrix) {
	if len(factors) != x.NModes() {
		panic("mttkrp: TimeMode factor count mismatch")
	}
	k, spans := len(dst), (x.NNZ()+timeSpan-1)/timeSpan
	c.ensureScratch(k)
	c.parts = grow(c.parts, spans*k)
	a := &c.args
	a.x, a.factors, a.k = x, factors, k
	c.pool.Do(spans, c.Workers, a, timeModeBody)
	a.reset()
	parallel.SumBlocks(dst, c.parts)
}

func timeModeBody(ctx any, w int, r parallel.Range) {
	a := ctx.(*kernelArgs)
	for sp := r.Lo; sp < r.Hi; sp++ {
		part := a.c.parts[sp*a.k : (sp+1)*a.k]
		clear(part)
		timeRange(part, a.c.scratch[w][:a.k], a.x, a.factors, sp*timeSpan, min((sp+1)*timeSpan, a.x.NNZ()))
	}
}

// timeModeRow computes buf[j] = val_e · ∏_v factors[v][i_v][j].
func timeModeRow(buf []float64, x *sptensor.Tensor, factors []*dense.Matrix, e int) {
	for j := range buf {
		buf[j] = x.Vals[e]
	}
	for v, f := range factors {
		row := f.Row(int(x.Inds[v][e]))
		for j := range buf {
			buf[j] *= row[j]
		}
	}
}
