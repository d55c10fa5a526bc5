package baselines

import (
	"testing"

	"spstream/internal/parallel"
)

func TestMutexPoolStriping(t *testing.T) {
	p := NewMutexPool(10)
	if p.Len() != 16 {
		t.Fatalf("pool size %d, want 16 (next pow2)", p.Len())
	}
	// Concurrent increments guarded by the pool must not race.
	counters := make([]int, 64)
	parallel.For(64*100, 8, func(_ int, r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			row := i % 64
			p.Lock(row)
			counters[row]++
			p.Unlock(row)
		}
	})
	for row, c := range counters {
		if c != 100 {
			t.Fatalf("row %d count %d", row, c)
		}
	}
}

func TestLocalBuffers(t *testing.T) {
	lb := NewLocalBuffers(3, 4)
	b0 := lb.Get(0, 4)
	for i := range b0 {
		b0[i] = float64(i)
	}
	// Get zeroes on reuse.
	b0again := lb.Get(0, 4)
	for _, v := range b0again {
		if v != 0 {
			t.Fatal("Get did not zero")
		}
	}
	// Grow beyond initial worker count.
	b5 := lb.Get(5, 2)
	if len(b5) != 2 {
		t.Fatal("lazy worker growth failed")
	}
	if lb.Workers() < 6 {
		t.Fatal("worker count did not grow")
	}
	// Reduce sums in worker order.
	lb2 := NewLocalBuffers(2, 3)
	a := lb2.Get(0, 3)
	b := lb2.Get(1, 3)
	a[0], a[1], a[2] = 1, 2, 3
	b[0], b[1], b[2] = 10, 20, 30
	dst := make([]float64, 3)
	lb2.Reduce(dst, 2, 3)
	if dst[0] != 11 || dst[2] != 33 {
		t.Fatalf("Reduce = %v", dst)
	}
}

func TestMutexPoolMinimumSize(t *testing.T) {
	p := NewMutexPool(0)
	if p.Len() != 1 {
		t.Fatalf("pool of 0 should clamp to 1, got %d", p.Len())
	}
	p.Lock(5)
	p.Unlock(5)
}

func TestLocalBuffersReduceEdgeCases(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	// Asking Reduce for more workers than buffers exist, or for a size
	// larger than some worker's buffer, is a sizing bug: a silent skip
	// would drop that worker's partial sums. Both must panic.
	short := NewLocalBuffers(2, 0)
	short.Get(0, 2)[1] = 5
	mustPanic("undersized buffer", func() {
		dst := make([]float64, 4)
		short.Reduce(dst, 2, 4) // worker 1 has size 0 < 4
	})
	lb := NewLocalBuffers(2, 4)
	lb.Get(0, 4)[0] = 1
	mustPanic("too many workers", func() {
		dst := make([]float64, 4)
		lb.Reduce(dst, 10, 4)
	})
	// In-range reductions still work.
	dst := make([]float64, 4)
	lb.Get(1, 4)[0] = 2
	lb.Reduce(dst, 2, 4)
	if dst[0] != 3 {
		t.Fatalf("reduce = %v", dst)
	}
}
