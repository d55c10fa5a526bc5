package baselines

import (
	"fmt"
	"sync"
)

// MutexPool is a pool of striped mutual-exclusion locks guarding the rows
// of a factor matrix, as used by the baseline CP-stream MTTKRP. Row i is
// guarded by lock i mod len(pool); several rows therefore share a lock,
// trading memory for (bounded) false contention, exactly as in SPLATT's
// lock pool.
type MutexPool struct {
	locks []sync.Mutex
	mask  int
}

// NewMutexPool creates a pool with at least n locks, rounded up to a
// power of two so that the row→lock mapping is a cheap mask.
func NewMutexPool(n int) *MutexPool {
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &MutexPool{locks: make([]sync.Mutex, size), mask: size - 1}
}

// Len returns the number of locks in the pool.
func (p *MutexPool) Len() int { return len(p.locks) }

// Lock acquires the lock guarding row i.
func (p *MutexPool) Lock(i int) { p.locks[i&p.mask].Lock() }

// Unlock releases the lock guarding row i.
func (p *MutexPool) Unlock(i int) { p.locks[i&p.mask].Unlock() }

// LocalBuffers holds one float64 scratch buffer per worker, used by the
// hybrid-lock MTTKRP to accumulate updates to short modes privately
// before a final reduction. Buffers are reused across calls to avoid
// per-iteration allocation.
type LocalBuffers struct {
	bufs [][]float64
}

// NewLocalBuffers creates per-worker buffers of the given size.
func NewLocalBuffers(workers, size int) *LocalBuffers {
	lb := &LocalBuffers{bufs: make([][]float64, workers)}
	for w := range lb.bufs {
		lb.bufs[w] = make([]float64, size)
	}
	return lb
}

// Get returns worker w's buffer, growing it to at least size and zeroing
// the first size elements.
func (lb *LocalBuffers) Get(w, size int) []float64 {
	for len(lb.bufs) <= w { // rare: callers size the pool to the worker count
		lb.bufs = append(lb.bufs, nil)
	}
	if cap(lb.bufs[w]) < size {
		lb.bufs[w] = make([]float64, size)
	}
	buf := lb.bufs[w][:size]
	clear(buf)
	return buf
}

// Workers returns the number of per-worker buffers currently held.
func (lb *LocalBuffers) Workers() int { return len(lb.bufs) }

// Reduce sums the first size elements of the first workers buffers into
// dst (dst must have length ≥ size). The accumulation order is worker
// 0..workers-1, so the result is deterministic. A worker count beyond the
// held buffers or an undersized buffer is a caller sizing bug — silently
// skipping it would drop that worker's partial sums — so Reduce panics
// instead.
func (lb *LocalBuffers) Reduce(dst []float64, workers, size int) {
	if workers > len(lb.bufs) {
		panic(fmt.Sprintf("baselines: LocalBuffers.Reduce over %d workers but only %d buffers held", workers, len(lb.bufs)))
	}
	for w := 0; w < workers; w++ {
		buf := lb.bufs[w]
		if len(buf) < size {
			panic(fmt.Sprintf("baselines: LocalBuffers.Reduce worker %d buffer has %d elements, need %d", w, len(buf), size))
		}
		for i := 0; i < size; i++ {
			dst[i] += buf[i]
		}
	}
}
