package parallel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolForMatchesPartition(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 3, 10, 97, 1000} {
		for _, workers := range []int{1, 2, 4} {
			seen := make([]bool, n)
			var mu sync.Mutex
			p.For(n, workers, func(w int, r Range) {
				mu.Lock()
				defer mu.Unlock()
				for i := r.Lo; i < r.Hi; i++ {
					if seen[i] {
						t.Errorf("n=%d w=%d: index %d visited twice", n, workers, i)
					}
					seen[i] = true
				}
			})
			for i, ok := range seen {
				if !ok {
					t.Fatalf("n=%d workers=%d: index %d not visited", n, workers, i)
				}
			}
		}
	}
}

func TestPoolWorkerRangeMatchesPartition(t *testing.T) {
	for n := 1; n < 50; n++ {
		for workers := 1; workers <= n && workers <= 8; workers++ {
			ranges := Partition(n, workers)
			for w, want := range ranges {
				if got := workerRange(n, workers, w); got != want {
					t.Fatalf("workerRange(%d,%d,%d)=%v want %v", n, workers, w, got, want)
				}
			}
		}
	}
}

func TestPoolChunkedMatchesFreeFunction(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n, chunk := 1000, 64
	got := make([]int, n)
	p.ForChunked(n, 3, chunk, func(w int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			got[i] = w
		}
	})
	// Round-robin: chunk c goes to worker c mod workers.
	for i := range got {
		want := (i / chunk) % 3
		if got[i] != want {
			t.Fatalf("index %d ran on worker %d, want %d", i, got[i], want)
		}
	}
}

func TestPoolReduceDeterministic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = 1.0 / float64(i+1)
	}
	body := func(_ int, r Range) float64 {
		s := 0.0
		for i := r.Lo; i < r.Hi; i++ {
			s += vals[i]
		}
		return s
	}
	first := p.ReduceFloat64(len(vals), 4, body)
	for trial := 0; trial < 10; trial++ {
		if again := p.ReduceFloat64(len(vals), 4, body); again != first {
			t.Fatalf("trial %d: %v != %v", trial, again, first)
		}
	}
}

func TestPoolReduceVecIntoOverwritesDst(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	dst := []float64{9, 9, 9}
	p.DoReduceVecInto(dst, 8, 4, nil, func(_ any, _ int, r Range, acc []float64) {
		for i := r.Lo; i < r.Hi; i++ {
			acc[0]++
			acc[2] += 2
		}
	})
	if dst[0] != 8 || dst[1] != 0 || dst[2] != 16 {
		t.Fatalf("dst = %v", dst)
	}
	// n == 0 must still zero dst.
	p.DoReduceVecInto(dst, 0, 4, nil, func(_ any, _ int, _ Range, _ []float64) {})
	if dst[0] != 0 || dst[2] != 0 {
		t.Fatalf("dst not zeroed on empty reduction: %v", dst)
	}
}

// Nested dispatch on the same pool must fall back to the spawn path
// rather than deadlock, and outer worker IDs stay stable.
func TestPoolNestedDispatch(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total int64
	var mu sync.Mutex
	p.For(4, 4, func(w int, r Range) {
		p.For(10, 2, func(_ int, inner Range) {
			mu.Lock()
			total += int64(inner.Hi - inner.Lo)
			mu.Unlock()
		})
	})
	if total != 40 {
		t.Fatalf("nested total = %d, want 40", total)
	}
}

// Concurrent dispatch from independent goroutines: one wins the pool,
// the others take the spawn fallback; all must complete correctly.
func TestPoolConcurrentDispatch(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				got := p.ReduceFloat64(1000, 4, func(_ int, r Range) float64 {
					return float64(r.Hi - r.Lo)
				})
				if got != 1000 {
					t.Errorf("reduce = %v, want 1000", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Requesting more workers than the pool holds must still run all work
// (via the spawn fallback).
func TestPoolOversubscribed(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var count int64
	var mu sync.Mutex
	p.For(100, 8, func(_ int, r Range) {
		mu.Lock()
		count += int64(r.Hi - r.Lo)
		mu.Unlock()
	})
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

// The steady-state ctx-style primitives must not allocate: the worker
// goroutines persist, the descriptor lives in pool fields, and the
// reduction arenas are pool-owned. Closure captures would break this, so
// the bodies below are top-level functions with a pointer ctx.
type poolAllocArgs struct {
	vals []float64
	out  []float64
}

func poolAllocForBody(ctx any, _ int, r Range) {
	a := ctx.(*poolAllocArgs)
	for i := r.Lo; i < r.Hi; i++ {
		a.out[i] = 2 * a.vals[i]
	}
}

func poolAllocReduceBody(ctx any, _ int, r Range) float64 {
	a := ctx.(*poolAllocArgs)
	s := 0.0
	for i := r.Lo; i < r.Hi; i++ {
		s += a.vals[i]
	}
	return s
}

func poolAllocReduceVecBody(ctx any, _ int, r Range, acc []float64) {
	a := ctx.(*poolAllocArgs)
	for i := r.Lo; i < r.Hi; i++ {
		acc[i%len(acc)] += a.vals[i]
	}
}

func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	args := &poolAllocArgs{vals: make([]float64, 4096), out: make([]float64, 4096)}
	for i := range args.vals {
		args.vals[i] = float64(i)
	}
	dst := make([]float64, 16)
	// Warm up: grows the vector-reduction arenas once.
	p.DoReduceVecInto(dst, len(args.vals), 4, args, poolAllocReduceVecBody)
	cases := map[string]func(){
		"Do": func() { p.Do(len(args.vals), 4, args, poolAllocForBody) },
		"DoChunked": func() {
			p.DoChunked(len(args.vals), 4, 256, args, poolAllocForBody)
		},
		"DoReduceFloat64": func() {
			_ = p.DoReduceFloat64(len(args.vals), 4, args, poolAllocReduceBody)
		},
		"DoReduceVecInto": func() {
			p.DoReduceVecInto(dst, len(args.vals), 4, args, poolAllocReduceVecBody)
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}

func TestDefaultPoolWrappers(t *testing.T) {
	// The free functions must dispatch through the default pool and keep
	// their documented semantics.
	if Default() != Default() {
		t.Fatal("Default must return a singleton")
	}
	sum := ReduceFloat64(100, 4, func(_ int, r Range) float64 { return float64(r.Hi - r.Lo) })
	if sum != 100 {
		t.Fatalf("wrapper ReduceFloat64 = %v", sum)
	}
	vec := ReduceVec(10, 2, 3, func(_ int, r Range, acc []float64) {
		acc[1] += float64(r.Hi - r.Lo)
	})
	if vec[1] != 10 || vec[0] != 0 {
		t.Fatalf("wrapper ReduceVec = %v", vec)
	}
}

// busy spins for d without yielding, standing in for a kernel body or
// the caller's serial work between dispatches.
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// Every dispatch must reach its workers whichever state they are in —
// still running the last op's tail, spinning, between the spin and the
// park, or parked — so bodies and gaps straddle the spin budget, and
// workers w ≥ active must never run.
func TestPoolSpinParkNoLostWake(t *testing.T) {
	durs := []time.Duration{0, spinBudget / 2, spinBudget, 2 * spinBudget, time.Millisecond}
	rounds := 1000
	if testing.Short() {
		rounds = 200
	}
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{2, 3, 5} {
		p := NewPool(size)
		var visits [64]atomic.Int32
		for round := 0; round < rounds; round++ {
			active := 2 + rng.Intn(size-1)
			n := size + rng.Intn(len(visits)-size+1)
			body, gap := durs[rng.Intn(len(durs))], durs[rng.Intn(len(durs))]
			p.For(n, active, func(w int, r Range) {
				if w >= active {
					t.Errorf("size %d: worker %d ran an op for %d workers", size, w, active)
				}
				for i := r.Lo; i < r.Hi; i++ {
					visits[i].Add(1)
				}
				busy(body)
			})
			for i := 0; i < n; i++ {
				if v := visits[i].Swap(0); v != 1 {
					t.Fatalf("size %d round %d (active %d, n %d): index %d visited %d times", size, round, active, n, i, v)
				}
			}
			busy(gap)
		}
		p.Close()
	}
}

// An idle pool must stop spinning: a worker left alone parks.
func TestPoolIdleParks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.For(4, 4, func(int, Range) {})
	time.Sleep(5 * spinBudget)
	// A short grace for a worker the host has not scheduled yet; a spin
	// that ignored its budget would still be polling long after it.
	deadline := time.Now().Add(200 * spinBudget)
	for w := 1; w < p.size; w++ {
		for st := p.state[w].Load(); st != stParked; st = p.state[w].Load() {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d: state %d long after the last op, want parked (%d)", w, st, stParked)
			}
			time.Sleep(spinBudget)
		}
	}
}

func TestPoolCloseStopsWorkers(t *testing.T) {
	for _, parked := range []bool{false, true} {
		base := runtime.NumGoroutine()
		p := NewPool(5)
		p.For(5, 5, func(int, Range) {})
		if parked {
			for w := 1; w < p.size; w++ {
				for p.state[w].Load() != stParked {
					time.Sleep(spinBudget)
				}
			}
		}
		p.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("parked=%v: %d goroutines after Close, %d before NewPool", parked, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}

func TestPoolUseAfterClosePanics(t *testing.T) {
	p := NewPool(3)
	p.For(3, 3, func(int, Range) {})
	p.Close()
	dst := make([]float64, 2)
	uses := map[string]func(){
		"Do":              func() { p.Do(6, 3, nil, func(any, int, Range) {}) },
		"DoChunked":       func() { p.DoChunked(6, 3, 1, nil, func(any, int, Range) {}) },
		"DoReduceFloat64": func() { p.DoReduceFloat64(6, 3, nil, func(any, int, Range) float64 { return 1 }) },
		"DoReduceVecInto": func() { p.DoReduceVecInto(dst, 6, 3, nil, func(any, int, Range, []float64) {}) },
	}
	for name, use := range uses {
		for attempt := 0; attempt < 2; attempt++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s after Close (attempt %d) did not panic", name, attempt)
					}
				}()
				use()
			}()
		}
	}
}

func poolEmptyBody(any, int, Range) {}

// BenchmarkPoolDispatch times back-to-back empty dispatches: at W = 1
// the inline path, at W = 2 one wake of a worker that is still spinning.
func BenchmarkPoolDispatch(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Do(2, w, nil, poolEmptyBody)
			}
		})
	}
}

type poolWakeArgs struct {
	body       time.Duration
	start, end time.Time // worker 1's
}

func poolWakeBody(ctx any, w int, _ Range) {
	a := ctx.(*poolWakeArgs)
	if w == 1 {
		a.start = time.Now()
	}
	busy(a.body)
	if w == 1 {
		a.end = time.Now()
	}
}

// BenchmarkPoolWake times BF-ADMM's dispatch pattern: a 190 µs body at
// W = 2 after 5 µs of serial work. lag_us is worker 1's start minus the
// dispatch, tail_us the caller's return minus worker 1's end.
func BenchmarkPoolWake(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	a := &poolWakeArgs{body: 190 * time.Microsecond}
	var lag, tail time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		busy(5 * time.Microsecond)
		t0 := time.Now()
		p.Do(2, 2, a, poolWakeBody)
		t1 := time.Now()
		lag += a.start.Sub(t0)
		tail += t1.Sub(a.end)
	}
	b.ReportMetric(float64(lag)/1e3/float64(b.N), "lag_us")
	b.ReportMetric(float64(tail)/1e3/float64(b.N), "tail_us")
}
