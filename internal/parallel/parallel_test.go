package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPartitionCoversRange(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		nn := int(n%1000) + 1
		ww := int(w%16) + 1
		ranges := Partition(nn, ww)
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r.Lo != prev || r.Hi <= r.Lo {
				return false
			}
			covered += r.Hi - r.Lo
			prev = r.Hi
		}
		return covered == nn && prev == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	ranges := Partition(10, 3)
	if len(ranges) != 3 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	sizes := []int{ranges[0].Hi - ranges[0].Lo, ranges[1].Hi - ranges[1].Lo, ranges[2].Hi - ranges[2].Lo}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("unbalanced partition: %v", sizes)
	}
}

func TestPartitionDegenerate(t *testing.T) {
	if Partition(0, 4) != nil {
		t.Fatal("Partition(0) should be nil")
	}
	if got := Partition(2, 8); len(got) != 2 {
		t.Fatalf("Partition(2,8) = %v", got)
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		n := 1000
		visits := make([]int32, n)
		For(n, workers, func(_ int, r Range) {
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
	For(n, 4, func(w int, r Range) {
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

func TestForChunkedCoversAll(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 2357
		visits := make([]int32, n)
		ForChunked(n, workers, 64, func(_ int, r Range) {
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

func TestReduceFloat64Deterministic(t *testing.T) {
	n := 10000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%7) * 0.1
	}
	body := func(_ int, r Range) float64 {
		s := 0.0
		for i := r.Lo; i < r.Hi; i++ {
			s += vals[i]
		}
		return s
	}
	first := ReduceFloat64(n, 4, body)
	for trial := 0; trial < 10; trial++ {
		if got := ReduceFloat64(n, 4, body); got != first {
			t.Fatal("ReduceFloat64 not deterministic for fixed worker count")
		}
	}
	serial := ReduceFloat64(n, 1, body)
	if diff := first - serial; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("parallel %v far from serial %v", first, serial)
	}
}

func TestReduceVec(t *testing.T) {
	n := 100
	got := ReduceVec(n, 4, 2, func(_ int, r Range, acc []float64) {
		for i := r.Lo; i < r.Hi; i++ {
			acc[0] += 1
			acc[1] += float64(i)
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
	got := ReduceVec(0, 4, 3, func(_ int, _ Range, _ []float64) {})
	if len(got) != 3 || got[0] != 0 {
		t.Fatalf("empty ReduceVec = %v", got)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be ≥ 1")
	}
	// Zero/negative requests fall back to the default in For.
	var count int32
	For(10, -3, func(_ int, r Range) { atomic.AddInt32(&count, int32(r.Hi-r.Lo)) })
	if count != 10 {
		t.Fatal("negative worker request mishandled")
	}
}
