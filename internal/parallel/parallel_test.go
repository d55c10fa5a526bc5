package parallel

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// closureBody unwraps a closure passed as Do's ctx.
func closureBody(ctx any, w int, r Range) { ctx.(func(w int, r Range))(w, r) }

// run is Do with a closure body.
func run(p *Pool, n, workers int, body func(w int, r Range)) {
	p.Do(n, workers, body, closureBody)
}

// sumBlocks is a block-keyed reduction over [0,n) on p, the pattern
// every summing kernel follows: body adds block b's share, range r, into
// the block's zeroed partial, and SumBlocks merges the partials into dst.
func sumBlocks(p *Pool, dst []float64, n, block, workers int, body func(part []float64, r Range)) {
	nb, dim := (n+block-1)/block, len(dst)
	parts := make([]float64, nb*dim)
	run(p, nb, workers, func(_ int, r Range) {
		for b := r.Lo; b < r.Hi; b++ {
			body(parts[b*dim:(b+1)*dim], Range{Lo: b * block, Hi: min((b+1)*block, n)})
		}
	})
	SumBlocks(dst, parts)
}

func TestPartitionCoversRange(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		nn := int(n%1000) + 1
		ww := clampWorkers(int(w%16)+1, nn)
		prev := 0
		for i := 0; i < ww; i++ {
			r := workerRange(nn, ww, i)
			if r.Lo != prev || r.Hi <= r.Lo {
				return false
			}
			prev = r.Hi
		}
		return prev == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	for w, want := range []int{4, 3, 3} {
		if r := workerRange(10, 3, w); r.Hi-r.Lo != want {
			t.Fatalf("worker %d: range %v, want %d long", w, r, want)
		}
	}
}

func TestPartitionDegenerate(t *testing.T) {
	if got := clampWorkers(8, 2); got != 2 {
		t.Fatalf("clampWorkers(8, 2) = %d, want 2", got)
	}
	if got := clampWorkers(4, 0); got != 1 {
		t.Fatalf("clampWorkers(4, 0) = %d, want 1", got)
	}
	run(Default(), 0, 4, func(int, Range) { t.Fatal("Do over an empty range ran its body") })
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		n := 1000
		visits := make([]int32, n)
		run(Default(), n, workers, func(_ int, r Range) {
			for i := r.Lo; i < r.Hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForWorkerIDsDistinct(t *testing.T) {
	n := 100
	seen := make(map[int]bool)
	ids := make(chan int, 16)
	run(Default(), n, 4, func(w int, r Range) {
		ids <- w
	})
	close(ids)
	for w := range ids {
		if seen[w] {
			t.Fatalf("worker id %d used twice", w)
		}
		seen[w] = true
	}
}

// A block-keyed sum has the same bits at every worker count, and those of
// the serial sum of its partials.
func TestReduceFloat64Deterministic(t *testing.T) {
	n := 10000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%7) * 0.1
	}
	body := func(part []float64, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			part[0] += vals[i]
		}
	}
	want := 0.0
	for lo := 0; lo < n; lo += 64 {
		s := 0.0
		for _, v := range vals[lo:min(lo+64, n)] {
			s += v
		}
		want += s
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		for trial := 0; trial < 3; trial++ {
			got := []float64{0}
			sumBlocks(Default(), got, n, 64, workers, body)
			if math.Float64bits(got[0]) != math.Float64bits(want) {
				t.Fatalf("workers=%d: sum %v, want %v", workers, got[0], want)
			}
		}
	}
}

func TestReduceVec(t *testing.T) {
	got := make([]float64, 2)
	sumBlocks(Default(), got, 100, 16, 4, func(part []float64, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			part[0]++
			part[1] += float64(i)
		}
	})
	if got[0] != 100 {
		t.Fatalf("count = %v", got[0])
	}
	if got[1] != 4950 {
		t.Fatalf("sum = %v", got[1])
	}
}

func TestReduceVecEmpty(t *testing.T) {
	got := []float64{1, 2, 3}
	sumBlocks(Default(), got, 0, 16, 4, func([]float64, Range) { t.Fatal("body ran on an empty range") })
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("empty reduction = %v", got)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be ≥ 1")
	}
	// Zero/negative requests fall back to the default in Do.
	var count int32
	run(Default(), 10, -3, func(_ int, r Range) { atomic.AddInt32(&count, int32(r.Hi-r.Lo)) })
	if count != 10 {
		t.Fatal("negative worker request mishandled")
	}
}
