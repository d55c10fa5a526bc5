package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Body is the context-style kernel signature used by the Pool's
// allocation-free primitives. The ctx value is threaded through verbatim;
// callers pass a pointer to a reusable argument struct and top-level
// functions as fn, so no closure is materialized on the heap per call.
type Body func(ctx any, w int, r Range)

// ReduceBody is Body for scalar reductions: each worker returns a partial
// that is summed in worker order.
type ReduceBody func(ctx any, w int, r Range) float64

// ReduceVecBody is Body for vector reductions: each worker accumulates
// into its own zeroed acc slice; partials are summed element-wise in
// worker order.
type ReduceVecBody func(ctx any, w int, r Range, acc []float64)

type opKind uint8

const (
	opFor opKind = iota
	opChunked
	opReduceF64
	opReduceVec
)

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

// Pool is a persistent worker pool: size−1 goroutines are spawned once
// and spin, then park, between operations; worker 0 is the calling
// goroutine. Steady-state dispatch of any primitive spawns zero
// goroutines and allocates zero bytes — the operation descriptor lives in
// pool-owned fields and reduction partials in pool-owned arenas.
//
// A Pool serializes its operations with an internal mutex acquired via
// TryLock: a nested or concurrent call that cannot take the lock (or
// that asks for more workers than the pool has) falls back to the legacy
// spawn-per-call path, which is correct but allocates. Worker IDs are
// stable within one operation: worker w always receives the ranges the
// static partition assigns to w.
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
	kind   opKind
	n      int
	active int
	chunk  int
	dim    int
	ctx    any
	fn     Body
	rfn    ReduceBody
	vfn    ReduceVecBody

	// Pool-owned reduction arenas, one entry per worker.
	f64s []float64
	accs [][]float64

	// trap records the first worker panic of the current operation; the
	// dispatching primitive re-panics with it on the caller after all
	// workers finish, keeping the worker goroutines alive.
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
		f64s:  make([]float64, size),
		accs:  make([][]float64, size),
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
// DefaultWorkers at first use. The free functions For, ForChunked,
// ReduceFloat64, and ReduceVec dispatch through it.
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

// workerRange is the blocked static partition of [0,n) over active
// workers — identical to the ranges Partition returns.
func workerRange(n, active, w int) Range {
	base := n / active
	rem := n % active
	lo := w * base
	if w < rem {
		lo += w
	} else {
		lo += rem
	}
	size := base
	if w < rem {
		size++
	}
	return Range{Lo: lo, Hi: lo + size}
}

// runWorker executes worker w's share of the current operation. A panic
// in the body is recorded in the pool's trap instead of unwinding the
// worker goroutine (which would deadlock the dispatcher and kill the
// process); the remaining workers complete their ranges normally.
func (p *Pool) runWorker(w int) {
	defer p.trap.catch()
	switch p.kind {
	case opFor:
		p.fn(p.ctx, w, workerRange(p.n, p.active, w))
	case opChunked:
		step := p.active * p.chunk
		for lo := w * p.chunk; lo < p.n; lo += step {
			hi := lo + p.chunk
			if hi > p.n {
				hi = p.n
			}
			p.fn(p.ctx, w, Range{Lo: lo, Hi: hi})
		}
	case opReduceF64:
		p.f64s[w] = p.rfn(p.ctx, w, workerRange(p.n, p.active, w))
	case opReduceVec:
		acc := p.accs[w][:p.dim]
		for i := range acc {
			acc[i] = 0
		}
		p.vfn(p.ctx, w, workerRange(p.n, p.active, w), acc)
	}
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
	p.ctx, p.fn, p.rfn, p.vfn = nil, nil, nil, nil
	pe := p.trap.take()
	p.mu.Unlock()
	if pe != nil {
		panic(pe)
	}
}

// Do executes fn over a static blocked partition of [0,n) with the given
// worker count (clamped to n; ≤0 means DefaultWorkers). Worker w gets
// range w of the partition. Allocation-free in steady state.
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
	p.kind, p.n, p.active, p.ctx, p.fn = opFor, n, workers, ctx, fn
	p.dispatch()
	p.finish()
}

// DoChunked executes fn over [0,n) in fixed-size chunks distributed
// round-robin across workers (OpenMP schedule(static, chunk)). With one
// worker the body is invoked exactly once on the full range.
func (p *Pool) DoChunked(n, workers, chunk int, ctx any, fn Body) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	workers = clampWorkers(workers, (n+chunk-1)/chunk)
	if workers == 1 {
		fn(ctx, 0, Range{Lo: 0, Hi: n})
		return
	}
	if workers > p.size || !p.mu.TryLock() {
		spawnDoChunked(n, workers, chunk, ctx, fn)
		return
	}
	p.kind, p.n, p.active, p.chunk, p.ctx, p.fn = opChunked, n, workers, chunk, ctx, fn
	p.dispatch()
	p.finish()
}

// DoReduceFloat64 runs fn on a static partition of [0,n) and sums the
// per-worker partials in worker order (deterministic for a fixed worker
// count). Partials live in a pool-owned arena.
func (p *Pool) DoReduceFloat64(n, workers int, ctx any, fn ReduceBody) float64 {
	if n <= 0 {
		return 0
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		return fn(ctx, 0, Range{Lo: 0, Hi: n})
	}
	if workers > p.size || !p.mu.TryLock() {
		return spawnReduceFloat64(n, workers, ctx, fn)
	}
	p.kind, p.n, p.active, p.ctx, p.rfn = opReduceF64, n, workers, ctx, fn
	p.dispatch()
	sum := 0.0
	for w := 0; w < workers; w++ {
		sum += p.f64s[w]
	}
	p.finish()
	return sum
}

// DoReduceVecInto zeroes dst (length = reduction dimension), runs fn on
// a static partition of [0,n) with per-worker accumulators from the
// pool's arena, and sums them element-wise into dst in worker order.
// With one worker, dst itself is the accumulator. Allocation-free once
// the arenas have grown to the requested dimension.
func (p *Pool) DoReduceVecInto(dst []float64, n, workers int, ctx any, fn ReduceVecBody) {
	for i := range dst {
		dst[i] = 0
	}
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		fn(ctx, 0, Range{Lo: 0, Hi: n}, dst)
		return
	}
	if workers > p.size || !p.mu.TryLock() {
		spawnReduceVecInto(dst, n, workers, ctx, fn)
		return
	}
	dim := len(dst)
	for w := 0; w < workers; w++ {
		if cap(p.accs[w]) < dim {
			p.accs[w] = make([]float64, dim)
		}
	}
	p.kind, p.n, p.active, p.dim, p.ctx, p.vfn = opReduceVec, n, workers, dim, ctx, fn
	p.dispatch()
	for w := 0; w < workers; w++ {
		acc := p.accs[w][:dim]
		for i, v := range acc {
			dst[i] += v
		}
	}
	p.finish()
}

// --- spawn-per-call fallbacks ------------------------------------------
//
// Used when the pool is busy (nested or concurrent dispatch) or when the
// caller asks for more workers than the pool holds. Semantically
// identical to the pool path — same partitions, same worker-order
// reductions — but each call spawns goroutines and allocates.

func spawnDo(n, workers int, ctx any, fn Body) {
	var trap panicTrap
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer trap.catch()
			fn(ctx, w, workerRange(n, workers, w))
		}(w)
	}
	func() {
		defer trap.catch()
		fn(ctx, 0, workerRange(n, workers, 0))
	}()
	wg.Wait()
	trap.rethrow()
}

func spawnDoChunked(n, workers, chunk int, ctx any, fn Body) {
	var trap panicTrap
	var wg sync.WaitGroup
	run := func(w int) {
		defer trap.catch()
		step := workers * chunk
		for lo := w * chunk; lo < n; lo += step {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(ctx, w, Range{Lo: lo, Hi: hi})
		}
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

func spawnReduceFloat64(n, workers int, ctx any, fn ReduceBody) float64 {
	var trap panicTrap
	partials := make([]float64, workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer trap.catch()
			partials[w] = fn(ctx, w, workerRange(n, workers, w))
		}(w)
	}
	func() {
		defer trap.catch()
		partials[0] = fn(ctx, 0, workerRange(n, workers, 0))
	}()
	wg.Wait()
	trap.rethrow()
	sum := 0.0
	for _, v := range partials {
		sum += v
	}
	return sum
}

func spawnReduceVecInto(dst []float64, n, workers int, ctx any, fn ReduceVecBody) {
	var trap panicTrap
	dim := len(dst)
	partials := make([][]float64, workers)
	for w := range partials {
		partials[w] = make([]float64, dim)
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer trap.catch()
			fn(ctx, w, workerRange(n, workers, w), partials[w])
		}(w)
	}
	func() {
		defer trap.catch()
		fn(ctx, 0, workerRange(n, workers, 0), partials[0])
	}()
	wg.Wait()
	trap.rethrow()
	for _, p := range partials {
		for i, v := range p {
			dst[i] += v
		}
	}
}

// --- closure conveniences ----------------------------------------------
//
// Method counterparts of the package-level For/ForChunked/ReduceFloat64/
// ReduceVec. The closure itself is the ctx, unwrapped by a top-level
// trampoline; a func value converts to any without allocating, but the
// closure may still capture variables onto the heap — use the ctx-style
// primitives above on allocation-critical paths.

func closureBody(ctx any, w int, r Range) { ctx.(func(w int, r Range))(w, r) }

func closureReduce(ctx any, w int, r Range) float64 {
	return ctx.(func(w int, r Range) float64)(w, r)
}

func closureReduceVec(ctx any, w int, r Range, acc []float64) {
	ctx.(func(w int, r Range, acc []float64))(w, r, acc)
}

// For executes body over a static partition of [0,n); see the
// package-level For.
func (p *Pool) For(n, workers int, body func(w int, r Range)) {
	p.Do(n, workers, body, closureBody)
}

// ForChunked executes body round-robin over fixed-size chunks; see the
// package-level ForChunked.
func (p *Pool) ForChunked(n, workers, chunk int, body func(w int, r Range)) {
	p.DoChunked(n, workers, chunk, body, closureBody)
}

// ReduceFloat64 sums per-worker scalar partials in worker order; see the
// package-level ReduceFloat64.
func (p *Pool) ReduceFloat64(n, workers int, body func(w int, r Range) float64) float64 {
	return p.DoReduceFloat64(n, workers, body, closureReduce)
}

// ReduceVec sums per-worker vector partials in worker order into a newly
// allocated slice; see the package-level ReduceVec.
func (p *Pool) ReduceVec(n, workers, dim int, body func(w int, r Range, acc []float64)) []float64 {
	out := make([]float64, dim)
	p.DoReduceVecInto(out, n, workers, body, closureReduceVec)
	return out
}
