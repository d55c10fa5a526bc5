// Package mttkrp implements the matricized-tensor-times-Khatri-Rao-
// product kernels studied in the paper:
//
//   - Sequential: single-threaded reference.
//   - Lock: the baseline parallelization — nonzeros are distributed over
//     workers and every factor-row update is guarded by a striped mutex
//     pool (paper §IV-B, "baseline MTTKRP"). Degrades under contention
//     when a mode is short.
//   - Hybrid: the paper's Hybrid Lock kernel — short modes accumulate
//     into thread-local matrix copies that are reduced at the end;
//     long modes keep the mutex pool (paper §IV-B).
//   - RowSparse: the spMTTKRP kernel of spCP-stream — operates on the
//     gathered A_nz factors of a remapped slice, so every access lands
//     in a dense, slice-local matrix (paper §V-B, notation 5).
//   - TimeMode: the single-row MTTKRP that produces the right-hand side
//     of the sₜ update; always uses thread-local accumulation because
//     the streaming mode has exactly one row (paper §IV-B).
//
// A Computer owns the reusable state (mutex pool, thread-local buffers)
// so per-iteration calls are allocation-free in steady state.
package mttkrp

import (
	"fmt"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// DefaultShortModeThreshold is the row count below which Hybrid switches
// from the mutex pool to thread-local accumulation. The paper motivates
// ~100; we default higher because the thread-local copy also wins
// whenever the whole matrix fits in cache per worker.
const DefaultShortModeThreshold = 1024

// DefaultLockPoolSize is the number of striped mutexes in the lock pool
// (matches SPLATT's default pool of 1024 locks).
const DefaultLockPoolSize = 1024

// nzChunk is the nonzero chunk size used for round-robin scheduling.
const nzChunk = 4096

// Computer holds reusable kernel state for a fixed worker count. All
// kernels dispatch through a persistent parallel.Pool; the ones that
// form a product row in memory (see scratch) keep it in a Computer-owned
// per-worker arena, so steady-state calls are allocation-free for any
// rank.
type Computer struct {
	Workers            int
	ShortModeThreshold int
	locks              *parallel.MutexPool
	locals             *parallel.LocalBuffers
	pool               *parallel.Pool

	// Per-worker scratch, kcap floats each: the rowProduct/timeModeRow
	// product row of the kernels that still form one — the Lock/Hybrid
	// baselines and the N ≠ 3 bodies of rowRun and timeRange. The
	// three-way plan, stream and time-mode kernels keep their panel in
	// registers and never touch it.
	scratch [][]float64
	kcap    int

	// Reusable views over the thread-local buffers (localAccumulate).
	bufViews [][]float64

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
	col     []int32
	dst     []float64
	locals  [][]float64
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
	c := &Computer{
		Workers:            workers,
		ShortModeThreshold: DefaultShortModeThreshold,
		locks:              parallel.NewMutexPool(DefaultLockPoolSize),
		locals:             parallel.NewLocalBuffers(workers, 0),
		pool:               pool,
		bufViews:           make([][]float64, workers),
	}
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

// Lock computes the MTTKRP with the baseline fine-grained parallelization
// over nonzeros and a striped mutex pool serializing row updates.
func (c *Computer) Lock(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	k := checkArgs(out, x.Dims, factors, mode)
	out.Zero()
	c.ensureScratch(k)
	a := &c.args
	a.out, a.x, a.factors, a.col, a.mode, a.k = out, x, factors, x.Inds[mode], mode, k
	c.pool.DoChunked(x.NNZ(), c.Workers, nzChunk, a, lockBody)
	a.reset()
}

func lockBody(ctx any, w int, r parallel.Range) {
	a := ctx.(*kernelArgs)
	c := a.c
	buf := c.scratch[w][:a.k]
	for e := r.Lo; e < r.Hi; e++ {
		rowProduct(buf, a.x, a.factors, a.mode, e, a.x.Vals[e])
		i := int(a.col[e])
		c.locks.Lock(i)
		row := a.out.Row(i)
		for j, v := range buf {
			row[j] += v
		}
		c.locks.Unlock(i)
	}
}

// Hybrid computes the MTTKRP with the paper's Hybrid Lock strategy:
// thread-local accumulation + reduction for short modes, the mutex pool
// for long ones.
func (c *Computer) Hybrid(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	rows := x.Dims[mode]
	if rows > c.ShortModeThreshold {
		c.Lock(out, x, factors, mode)
		return
	}
	c.localAccumulate(out, x, factors, mode)
}

// LocalAccumulate runs the thread-local path unconditionally, ignoring
// ShortModeThreshold — the calibration benchmark measures both paths on
// the same mode to locate the crossover.
func (c *Computer) LocalAccumulate(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	c.localAccumulate(out, x, factors, mode)
}

// localAccumulate runs the thread-local path unconditionally (exposed
// separately so benchmarks can compare both paths on the same mode).
func (c *Computer) localAccumulate(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	k := checkArgs(out, x.Dims, factors, mode)
	rows := x.Dims[mode]
	out.Zero()
	if x.NNZ() == 0 {
		return
	}
	size := rows * k
	nchunks := (x.NNZ() + nzChunk - 1) / nzChunk
	workers := c.Workers
	if workers > nchunks {
		workers = nchunks
	}
	if workers < 1 {
		workers = 1
	}
	c.ensureScratch(k)
	// Zero exactly the buffers the workers below will touch; Get zeroes
	// and returns a stable slice for each worker.
	if cap(c.bufViews) < workers {
		c.bufViews = make([][]float64, workers)
	}
	bufs := c.bufViews[:workers]
	for w := range bufs {
		bufs[w] = c.locals.Get(w, size)
	}
	a := &c.args
	a.out, a.x, a.factors, a.col, a.locals, a.mode, a.k = out, x, factors, x.Inds[mode], bufs, mode, k
	c.pool.DoChunked(x.NNZ(), workers, nzChunk, a, localBody)
	dst := out.Data[:size]
	for _, local := range bufs {
		for i, v := range local {
			dst[i] += v
		}
	}
	for w := range bufs {
		bufs[w] = nil
	}
	a.reset()
}

func localBody(ctx any, w int, r parallel.Range) {
	a := ctx.(*kernelArgs)
	c := a.c
	local := a.locals[w]
	buf := c.scratch[w][:a.k]
	for e := r.Lo; e < r.Hi; e++ {
		rowProduct(buf, a.x, a.factors, a.mode, e, a.x.Vals[e])
		off := int(a.col[e]) * a.k
		dst := local[off : off+a.k]
		for j, v := range buf {
			dst[j] += v
		}
	}
}

// TimeMode computes dst[k] = Σ_e val_e · ∏_v factors[v][i_v][k] — the
// streaming-mode MTTKRP whose output is a single row. Thread-local
// accumulation is mandatory here: with one output row, locking would
// serialize every update (paper §IV-B).
func (c *Computer) TimeMode(dst []float64, x *sptensor.Tensor, factors []*dense.Matrix) {
	if len(factors) != x.NModes() {
		panic("mttkrp: TimeMode factor count mismatch")
	}
	k := len(dst)
	c.ensureScratch(k)
	a := &c.args
	a.x, a.factors, a.k = x, factors, k
	c.pool.DoReduceVecInto(dst, x.NNZ(), c.Workers, a, timeModeBody)
	a.reset()
}

func timeModeBody(ctx any, w int, r parallel.Range, acc []float64) {
	a := ctx.(*kernelArgs)
	timeRange(acc, a.c.scratch[w][:a.k], a.x, a.factors, r.Lo, r.Hi)
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

// TimeModeLocked is the pathological baseline for the streaming mode: a
// single shared row guarded by one lock, exactly what the unmodified
// CP-stream implementation does. It exists to reproduce the contention
// collapse of paper Fig. 4 and is never used by the optimized solvers.
func (c *Computer) TimeModeLocked(dst []float64, x *sptensor.Tensor, factors []*dense.Matrix) {
	if len(factors) != x.NModes() {
		panic("mttkrp: TimeModeLocked factor count mismatch")
	}
	k := len(dst)
	for j := range dst {
		dst[j] = 0
	}
	c.ensureScratch(k)
	a := &c.args
	a.x, a.factors, a.dst, a.k = x, factors, dst, k
	c.pool.DoChunked(x.NNZ(), c.Workers, 64, a, timeLockedBody)
	a.reset()
}

func timeLockedBody(ctx any, w int, r parallel.Range) {
	a := ctx.(*kernelArgs)
	c := a.c
	buf := c.scratch[w][:a.k]
	for e := r.Lo; e < r.Hi; e++ {
		timeModeRow(buf, a.x, a.factors, e)
		c.locks.Lock(0)
		for j, v := range buf {
			a.dst[j] += v
		}
		c.locks.Unlock(0)
	}
}
