package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Body is the context-style kernel signature of Pool.Do. The ctx value
// is threaded through verbatim; callers pass a pointer to a reusable
// argument struct and a top-level function as fn, so no closure is
// materialized on the heap per call.
type Body func(ctx any, w int, r Range)

// Between operations a worker spins on its own state word for
// spinBudget, as OpenMP runtimes do (KMP_BLOCKTIME), then CASes
// stIdle→stParked and blocks on its wake channel; dispatch swaps in stGo
// and sends only when the swap finds stParked. A channel wake costs
// ≈ 70 µs against the ≈ 200 µs bodies BF-ADMM dispatches thousands of
// times a slice. The budget is a constant so an idle process stops
// burning CPU soon after its last operation. spinYield is the polls
// between runtime.Gosched calls: without them, the goroutine being
// waited for can sit queued behind the spinner on the same P.
const (
	stIdle int32 = iota
	stParked
	stGo

	spinBudget = 50 * time.Microsecond
	spinYield  = 64
)

// paddedState keeps each worker's state word on its own cache line.
type paddedState struct {
	atomic.Int32
	_ [60]byte
}

// Pool is a persistent worker pool with one operation, Do: size−1
// goroutines are spawned once and spin, then park, between operations;
// worker 0 is the calling goroutine. Steady-state dispatch spawns zero
// goroutines and allocates zero bytes — the operation descriptor lives in
// pool-owned fields. A reduction is the caller's: its body writes one
// partial per fixed block and SumBlocks merges them, so no bit depends
// on how many workers ran.
//
// A Pool serializes its operations with an internal mutex acquired via
// TryLock: a nested or concurrent call that cannot take the lock (or
// that asks for more workers than the pool has) falls back to a
// spawn-per-call path, which is correct but allocates. Worker IDs are
// stable within one operation: worker w always receives range w of the
// static partition.
type Pool struct {
	size    int
	state   []paddedState
	wake    []chan struct{}
	running atomic.Int32 // workers 1.. of the current operation still running
	wg      sync.WaitGroup
	closed  atomic.Bool

	mu sync.Mutex // guards the operation fields below

	// Current operation descriptor (valid while mu is held and workers
	// are running).
	n      int
	active int
	ctx    any
	fn     Body

	// trap records the first worker panic of the current operation; Do
	// re-panics with it on the caller after all workers finish, keeping
	// the worker goroutines alive.
	trap panicTrap
}

// NewPool creates a pool with the given number of workers (≤0 means
// DefaultWorkers); its size−1 goroutines run until Close.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = DefaultWorkers()
	}
	p := &Pool{
		size:  size,
		state: make([]paddedState, size),
		wake:  make([]chan struct{}, size),
	}
	for w := 1; w < size; w++ {
		p.wake[w] = make(chan struct{}, 1)
		go p.workerLoop(w)
	}
	return p
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// Default returns the lazily-initialized process-wide pool, sized to
// DefaultWorkers at first use.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(DefaultWorkers()) })
	return defaultPool
}

// Size returns the number of workers the pool was created with.
func (p *Pool) Size() int { return p.size }

// Close stops the worker goroutines, spinning or parked, and returns once
// they have exited. The pool must be idle; an operation that reaches the
// workers after Close panics. The default pool is never closed.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed.Store(true)
	p.wg.Add(p.size - 1)
	for w := 1; w < p.size; w++ {
		close(p.wake[w]) // a spinning worker sees it once it parks
	}
	p.wg.Wait()
}

// spin polls done for up to spinBudget, yielding every spinYield polls,
// and reports whether done returned true.
func spin(done func() bool) bool {
	start := time.Now()
	for i := 1; !done(); i++ {
		if i%spinYield == 0 {
			if time.Since(start) > spinBudget {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}

func (p *Pool) workerLoop(w int) {
	s := &p.state[w]
	signalled := func() bool { return s.Load() == stGo }
	for {
		if !spin(signalled) && s.CompareAndSwap(stIdle, stParked) {
			<-p.wake[w] // dispatch swapped in stGo, or Close closed it
		}
		if p.closed.Load() {
			p.wg.Done()
			return
		}
		p.runWorker(w)
		// In this order: a caller that sees running reach 0 skips wg.Wait
		// and may dispatch again at once, so its swap must find stIdle
		// and its wg.Add must find wg back at zero.
		s.Store(stIdle)
		p.wg.Done()
		p.running.Add(-1)
	}
}

// workerRange is worker w's share of the blocked static partition of
// [0,n) over active workers: contiguous, in worker order, the first
// n mod active ranges one longer.
func workerRange(n, active, w int) Range {
	base, rem := n/active, n%active
	lo := w*base + min(w, rem)
	if w < rem {
		base++
	}
	return Range{Lo: lo, Hi: lo + base}
}

// runWorker executes worker w's range of the current operation. A panic
// in the body is recorded in the pool's trap instead of unwinding the
// worker goroutine (which would deadlock the dispatcher and kill the
// process); the remaining workers complete their ranges normally.
func (p *Pool) runWorker(w int) {
	defer p.trap.catch()
	p.fn(p.ctx, w, workerRange(p.n, p.active, w))
}

// dispatch wakes workers 1..active−1, runs worker 0 inline on the
// caller, and waits for completion: it spins on the running count for
// spinBudget, then blocks in wg.Wait. Must be called with p.mu held.
func (p *Pool) dispatch() {
	if p.closed.Load() {
		p.finish()
		panic("parallel: Pool used after Close")
	}
	p.running.Add(int32(p.active - 1))
	p.wg.Add(p.active - 1)
	for w := 1; w < p.active; w++ {
		if p.state[w].Swap(stGo) == stParked {
			p.wake[w] <- struct{}{}
		}
	}
	p.runWorker(0)
	if !spin(func() bool { return p.running.Load() == 0 }) {
		p.wg.Wait()
	}
}

// finish drops the references to the caller's arguments, releases p.mu
// and re-panics with the operation's first worker panic.
func (p *Pool) finish() {
	p.ctx, p.fn = nil, nil
	pe := p.trap.take()
	p.mu.Unlock()
	if pe != nil {
		panic(pe)
	}
}

// Do executes fn over a static blocked partition of [0,n) with the given
// worker count (clamped to n; ≤0 means DefaultWorkers). Worker w gets
// range w of the partition; with one worker fn runs once, inline and
// untrapped, on the whole range. Allocation-free in steady state.
func (p *Pool) Do(n, workers int, ctx any, fn Body) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		fn(ctx, 0, Range{Lo: 0, Hi: n})
		return
	}
	if workers > p.size || !p.mu.TryLock() {
		spawnDo(n, workers, ctx, fn)
		return
	}
	p.n, p.active, p.ctx, p.fn = n, workers, ctx, fn
	p.dispatch()
	p.finish()
}

// spawnDo is Do when the pool is busy (nested or concurrent dispatch) or
// smaller than the request: the same ranges on goroutines spawned for
// the call.
func spawnDo(n, workers int, ctx any, fn Body) {
	var trap panicTrap
	var wg sync.WaitGroup
	run := func(w int) {
		defer trap.catch()
		fn(ctx, w, workerRange(n, workers, w))
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
	trap.rethrow()
}
