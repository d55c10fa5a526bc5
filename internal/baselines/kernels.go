package baselines

import (
	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// The MTTKRP kernels the paper measures its contributions against (§IV-B,
// Fig. 4). The serving runtime runs none of them — it has the compiled
// plan / CSF kernels of internal/mttkrp and internal/csf; they live here
// so that the comparison stays runnable. They add in lock-acquisition
// order: above one worker two runs differ in the last bits, by design.

// DefaultShortModeThreshold is the row count up to which Hybrid takes the
// thread-local path. The paper motivates ~100; the default is higher
// because the thread-local copy also wins whenever the whole matrix fits
// in cache per worker (paperbench -exp threshold).
const DefaultShortModeThreshold = 1024

// lockPoolSize matches SPLATT's default pool of 1024 locks; nzChunk is the
// nonzero chunk of the round-robin schedule.
const lockPoolSize, nzChunk = 1024, 4096

// LockKernels holds the lock pool and thread-local buffers of the baseline
// kernels for a fixed worker count.
type LockKernels struct {
	Workers            int
	ShortModeThreshold int
	locks              *MutexPool
	locals             *LocalBuffers
}

// NewLockKernels creates the kernels for a worker count (≤0: GOMAXPROCS).
func NewLockKernels(workers int) *LockKernels {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	return &LockKernels{
		Workers: workers, ShortModeThreshold: DefaultShortModeThreshold,
		locks: NewMutexPool(lockPoolSize), locals: NewLocalBuffers(workers, 0),
	}
}

// rowProduct fills buf with val_e · ∏_{v≠skip} factors[v][i_v][:]; skip = -1
// multiplies every mode (the streaming-mode row). A three-way factor mode,
// the common case, is fused into one write per element.
func rowProduct(buf []float64, x *sptensor.Tensor, factors []*dense.Matrix, skip, e int) {
	if len(factors) == 3 && skip >= 0 {
		u, v := min((skip+1)%3, (skip+2)%3), max((skip+1)%3, (skip+2)%3)
		ru, rv := factors[u].Row(int(x.Inds[u][e])), factors[v].Row(int(x.Inds[v][e]))
		for j := range buf {
			buf[j] = x.Vals[e] * ru[j] * rv[j]
		}
		return
	}
	for j := range buf {
		buf[j] = x.Vals[e]
	}
	for v, f := range factors {
		if v == skip {
			continue
		}
		for j, a := range f.Row(int(x.Inds[v][e])) {
			buf[j] *= a
		}
	}
}

// checkShapes panics unless out and factors fit x and mode; it returns K.
func checkShapes(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) int {
	k := out.Cols
	ok := len(factors) == x.NModes() && mode >= 0 && mode < x.NModes() && out.Rows == x.Dims[mode]
	for m := 0; ok && m < len(factors); m++ {
		ok = factors[m].Cols == k && factors[m].Rows == x.Dims[m]
	}
	if !ok {
		panic("baselines: MTTKRP operands do not fit the slice")
	}
	return k
}

// Lock computes out = MTTKRP(x, factors, mode) with the baseline
// parallelization: nonzeros are dealt to the workers and every factor-row
// update is guarded by a striped mutex. Degrades under contention when
// the mode is short or skewed.
func (c *LockKernels) Lock(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	k, col := checkShapes(out, x, factors, mode), x.Inds[mode]
	out.Zero()
	parallel.ForChunked(x.NNZ(), c.Workers, nzChunk, func(_ int, r parallel.Range) {
		buf := make([]float64, k)
		for e := r.Lo; e < r.Hi; e++ {
			rowProduct(buf, x, factors, mode, e)
			i := int(col[e])
			c.locks.Lock(i)
			row := out.Row(i)
			for j, v := range buf {
				row[j] += v
			}
			c.locks.Unlock(i)
		}
	})
}

// Hybrid is the paper's Hybrid Lock: LocalAccumulate for modes of at most
// ShortModeThreshold rows, Lock for longer ones.
func (c *LockKernels) Hybrid(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	if x.Dims[mode] > c.ShortModeThreshold {
		c.Lock(out, x, factors, mode)
	} else {
		c.LocalAccumulate(out, x, factors, mode)
	}
}

// LocalAccumulate is Hybrid's thread-local path whatever the mode length
// (the threshold experiment times both paths on one mode): every worker
// accumulates into its own rows×K copy, summed in worker order at the end.
func (c *LockKernels) LocalAccumulate(out *dense.Matrix, x *sptensor.Tensor, factors []*dense.Matrix, mode int) {
	k, col := checkShapes(out, x, factors, mode), x.Inds[mode]
	out.Zero()
	if x.NNZ() == 0 {
		return
	}
	size := x.Dims[mode] * k
	workers := parallel.ClampWorkers(c.Workers, (x.NNZ()+nzChunk-1)/nzChunk)
	locals := make([][]float64, workers)
	for w := range locals {
		locals[w] = c.locals.Get(w, size)
	}
	parallel.ForChunked(x.NNZ(), workers, nzChunk, func(w int, r parallel.Range) {
		buf := make([]float64, k)
		for e := r.Lo; e < r.Hi; e++ {
			rowProduct(buf, x, factors, mode, e)
			dst := locals[w][int(col[e])*k:]
			for j, v := range buf {
				dst[j] += v
			}
		}
	})
	c.locals.Reduce(out.Data[:size], workers, size)
}

// TimeModeLocked computes dst[k] = Σ_e val_e · ∏_v factors[v][i_v][k], the
// streaming-mode MTTKRP, the way the unmodified CP-stream does: one shared
// row behind one lock — the contention collapse of Fig. 4.
func (c *LockKernels) TimeModeLocked(dst []float64, x *sptensor.Tensor, factors []*dense.Matrix) {
	if len(factors) != x.NModes() {
		panic("baselines: TimeModeLocked factor count mismatch")
	}
	clear(dst)
	parallel.ForChunked(x.NNZ(), c.Workers, 64, func(_ int, r parallel.Range) {
		buf := make([]float64, len(dst))
		for e := r.Lo; e < r.Hi; e++ {
			rowProduct(buf, x, factors, -1, e)
			c.locks.Lock(0)
			for j, v := range buf {
				dst[j] += v
			}
			c.locks.Unlock(0)
		}
	})
}
