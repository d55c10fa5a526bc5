package cluster

import (
	"math/rand"
	"testing"

	"spstream/internal/sptensor"
)

// TestRouterBlocksTile: for awkward (dim, n) combinations — dim < n,
// dim % n ≠ 0, n = 1 — the blocks tile [0, dim) contiguously with no
// gaps and no overlaps, and ShardForRow inverts Block exactly.
func TestRouterBlocksTile(t *testing.T) {
	cases := []struct{ dim, n int }{
		{10, 3}, {12, 3}, {7, 4}, {1, 1}, {1, 5}, {2, 3}, {3, 7},
		{5, 2}, {100, 7}, {64, 64}, {63, 64}, {65, 64}, {1000, 1},
	}
	for _, c := range cases {
		r, err := NewRouter([]int{c.dim, 4}, c.n)
		if err != nil {
			t.Fatalf("(%d,%d): %v", c.dim, c.n, err)
		}
		prevHi := 0
		total := 0
		for s := 0; s < c.n; s++ {
			lo, hi := r.Block(s)
			if lo != prevHi {
				t.Errorf("(%d,%d): block %d starts at %d, want %d (gap or overlap)", c.dim, c.n, s, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("(%d,%d): block %d inverted: [%d,%d)", c.dim, c.n, s, lo, hi)
			}
			total += hi - lo
			prevHi = hi
			for i := lo; i < hi; i++ {
				if got := r.ShardForRow(i); got != s {
					t.Errorf("(%d,%d): ShardForRow(%d) = %d, want %d", c.dim, c.n, i, got, s)
				}
			}
		}
		if prevHi != c.dim || total != c.dim {
			t.Errorf("(%d,%d): blocks cover %d rows ending at %d, want %d", c.dim, c.n, total, prevHi, c.dim)
		}
	}
}

// TestRouterGolden pins the assignment for a fixed topology so any
// future change to the block arithmetic — which would strand every
// deployed cluster's row ownership — fails loudly instead of silently
// rerouting rows.
func TestRouterGolden(t *testing.T) {
	r, err := NewRouter([]int{10, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: [0,3) [3,6) [6,10).
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 2}
	for i, s := range want {
		if got := r.ShardForRow(i); got != s {
			t.Errorf("ShardForRow(%d) = %d, want %d", i, got, s)
		}
	}
}

// TestRouterStability: two independently constructed routers agree on
// every assignment — the routing is a pure function of (event, dims,
// n), so "the same event routes to the same shard across process
// restarts" holds by construction; this guards against anyone adding
// per-instance state later.
func TestRouterStability(t *testing.T) {
	dims := []int{37, 5, 9}
	a, _ := NewRouter(dims, 4)
	b, _ := NewRouter(dims, 4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		ev := sptensor.Event{Coord: []int32{
			int32(rng.Intn(dims[0])), int32(rng.Intn(dims[1])), int32(rng.Intn(dims[2])),
		}, Value: 1}
		sa, errA := a.ShardFor(ev)
		sb, errB := b.ShardFor(ev)
		if errA != nil || errB != nil {
			t.Fatalf("valid event rejected: %v / %v", errA, errB)
		}
		if sa != sb {
			t.Fatalf("event %v routed to %d and %d", ev.Coord, sa, sb)
		}
		lo, hi := a.Block(sa)
		if i0 := int(ev.Coord[0]); i0 < lo || i0 >= hi {
			t.Fatalf("event row %d outside its shard's block [%d,%d)", i0, lo, hi)
		}
	}
}

// TestRouterPartitionRejectsWithoutPartialForwards: one bad event
// anywhere in the batch yields zero batches — nothing to forward — so
// a dim-mismatched batch cannot be delivered to some shards and
// refused for others.
func TestRouterPartitionRejectsWithoutPartialForwards(t *testing.T) {
	r, _ := NewRouter([]int{10, 4}, 3)
	good := func(row int) sptensor.Event {
		return sptensor.Event{Coord: []int32{int32(row), 0}, Value: 1}
	}
	bad := []sptensor.Event{
		{Coord: []int32{1}, Value: 1},       // too few modes
		{Coord: []int32{1, 0, 0}, Value: 1}, // too many modes
		{Coord: []int32{10, 0}, Value: 1},   // mode-0 out of range
		{Coord: []int32{-1, 0}, Value: 1},   // negative
		{Coord: []int32{1, 4}, Value: 1},    // mode-1 out of range
	}
	for _, b := range bad {
		batches, err := r.Partition([]sptensor.Event{good(0), good(5), b, good(9)})
		if err == nil {
			t.Fatalf("bad event %v accepted", b.Coord)
		}
		if batches != nil {
			t.Fatalf("bad event %v produced partial batches: %v", b.Coord, batches)
		}
		if _, err := r.ShardFor(b); err == nil {
			t.Fatalf("ShardFor accepted %v", b.Coord)
		}
	}

	// A clean batch partitions in order with nothing lost.
	batches, err := r.Partition([]sptensor.Event{good(9), good(0), good(5), good(1), good(6)})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{2, 1, 2} // rows {0,1}, {5}, {9,6}
	for s, want := range counts {
		if len(batches[s]) != want {
			t.Errorf("shard %d got %d events, want %d", s, len(batches[s]), want)
		}
	}
	// Order within a bucket is arrival order.
	if batches[2][0].Coord[0] != 9 || batches[2][1].Coord[0] != 6 {
		t.Errorf("shard 2 bucket out of order: %v", batches[2])
	}
}

func TestRouterRejectsBadTopology(t *testing.T) {
	for _, c := range []struct {
		dims []int
		n    int
	}{
		{[]int{10}, 2},     // single mode
		{nil, 2},           // no modes
		{[]int{0, 4}, 2},   // zero dim
		{[]int{10, -1}, 2}, // negative dim
		{[]int{10, 4}, 0},  // no shards
		{[]int{10, 4}, -3}, // negative shards
	} {
		if _, err := NewRouter(c.dims, c.n); err == nil {
			t.Errorf("NewRouter(%v, %d) accepted", c.dims, c.n)
		}
	}
}
