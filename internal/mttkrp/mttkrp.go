// Package mttkrp implements the matricized-tensor-times-Khatri-Rao-
// product kernels the runtime executes: Sequential (the single-threaded
// reference every other kernel is tested against), the one factor-mode
// Kernel over a block source, resident or streamed (kernel.go), and the
// register panel under it (panel.go), the Remapper into the compact
// nz-row index space (remap.go), and TimeMode, the single-row
// streaming-mode MTTKRP (one partial per fixed nonzero span where the
// paper accumulates per thread, §IV-B) that scores an arbitrary slice's
// fit — the runtime's sₜ reads its right-hand side off a factor mode's
// MTTKRP instead.
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
// rank. A Kernel's row-order copies and decode buffers are the Kernel's
// own: a caller that recompiles one Kernel per slice keeps the compile
// allocation-free too, and the worker count it partitions for is the
// Computer's.
type Computer struct {
	Workers int
	pool    *parallel.Pool

	// Per-worker scratch, kcap floats each: the rowProduct/timeModeRow
	// product row of the kernels that still form one — the N ≠ 3 bodies
	// of rowRun and timeRange. The three-way Kernel and time-mode
	// kernels keep their panel in registers and never touch it.
	scratch [][]float64
	kcap    int

	// TimeMode's span partials, k floats per timeSpan nonzeros, and its
	// arguments for the pool body (no closure), cleared after each call
	// so the factors are not pinned between iterations.
	parts   []float64
	x       *sptensor.Tensor
	factors []*dense.Matrix
	k       int
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
	return &Computer{Workers: workers, pool: pool}
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
// (parallel.SumBlocks), so no bit depends on the worker count. A
// multiple of timeChunk.
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
	c.x, c.factors, c.k = x, factors, k
	c.pool.Do(spans, c.Workers, c, timeModeBody)
	c.x, c.factors = nil, nil
	parallel.SumBlocks(dst, c.parts)
}

func timeModeBody(ctx any, w int, r parallel.Range) {
	c := ctx.(*Computer)
	for sp := r.Lo; sp < r.Hi; sp++ {
		part := c.parts[sp*c.k : (sp+1)*c.k]
		clear(part)
		timeRange(part, c.scratch[w][:c.k], c.x, c.factors, sp*timeSpan, min((sp+1)*timeSpan, c.x.NNZ()))
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
