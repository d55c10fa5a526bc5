package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// bruteNorm2 evaluates ‖X̂‖² restricted to mode-0 rows [lo,hi) the slow
// way: reconstruct every entry and sum the squares.
func bruteNorm2(factors [][][]float64, s []float64, lo, hi int) float64 {
	dims := make([]int, len(factors))
	for m, f := range factors {
		dims[m] = len(f)
	}
	coord := make([]int, len(dims))
	var walk func(m int) float64
	walk = func(m int) float64 {
		if m == len(dims) {
			v := 0.0
			for k := range s {
				p := s[k]
				for mm, c := range coord {
					p *= factors[mm][c][k]
				}
				v += p
			}
			return v * v
		}
		rlo, rhi := 0, dims[m]
		if m == 0 {
			rlo, rhi = lo, hi
		}
		sum := 0.0
		for c := rlo; c < rhi; c++ {
			coord[m] = c
			sum += walk(m + 1)
		}
		return sum
	}
	return walk(0)
}

// TestBlockNorm2MatchesBruteForce: the Gram/Hadamard contraction equals
// the entrywise sum of squares, for 2- and 3-mode models, full blocks,
// partial blocks, and empty blocks.
func TestBlockNorm2MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randFactor := func(rows, k int) [][]float64 {
		f := make([][]float64, rows)
		for i := range f {
			f[i] = make([]float64, k)
			for j := range f[i] {
				f[i][j] = rng.NormFloat64()
			}
		}
		return f
	}
	cases := []struct {
		dims   []int
		k      int
		lo, hi int
	}{
		{[]int{6, 4}, 3, 0, 6},    // full block, 2 modes
		{[]int{6, 4}, 3, 2, 5},    // interior block
		{[]int{6, 4}, 3, 4, 4},    // empty block
		{[]int{5, 3, 4}, 2, 1, 4}, // 3 modes
		{[]int{5, 3, 4}, 4, 0, 2},
		{[]int{1, 2, 2}, 1, 0, 1}, // minimal
	}
	for _, c := range cases {
		factors := make([][][]float64, len(c.dims))
		for m, d := range c.dims {
			factors[m] = randFactor(d, c.k)
		}
		s := make([]float64, c.k)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		got := BlockNorm2(factors, s, c.lo, c.hi)
		want := bruteNorm2(factors, s, c.lo, c.hi)
		if diff := math.Abs(got - want); diff > 1e-9*(1+math.Abs(want)) {
			t.Errorf("dims=%v k=%d block=[%d,%d): BlockNorm2=%g brute=%g (diff %g)",
				c.dims, c.k, c.lo, c.hi, got, want, diff)
		}
	}
}

// TestBlockNorm2Additivity: with disjoint blocks tiling mode 0, the
// per-block norms sum to the full norm — the identity that lets the
// gateway report a global ‖X̂‖² as a plain sum over shards.
func TestBlockNorm2Additivity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dims := []int{10, 4, 3}
	k := 3
	factors := make([][][]float64, len(dims))
	for m, d := range dims {
		factors[m] = make([][]float64, d)
		for i := range factors[m] {
			factors[m][i] = make([]float64, k)
			for j := range factors[m][i] {
				factors[m][i][j] = rng.NormFloat64()
			}
		}
	}
	s := []float64{0.7, -1.2, 0.3}
	r, _ := NewRouter(dims, 3)
	sum := 0.0
	for sh := 0; sh < r.Shards(); sh++ {
		lo, hi := r.Block(sh)
		sum += BlockNorm2(factors, s, lo, hi)
	}
	full := BlockNorm2(factors, s, 0, dims[0])
	if diff := math.Abs(sum - full); diff > 1e-9*(1+math.Abs(full)) {
		t.Errorf("block sum %g != full norm %g (diff %g)", sum, full, diff)
	}
}

// TestMergeMode0: rows land in the right global slots, unreachable
// shards yield missing ranges (not silent zeros), and empty blocks are
// never reported missing.
func TestMergeMode0(t *testing.T) {
	r, _ := NewRouter([]int{7, 4}, 3) // blocks [0,2) [2,4) [4,7)
	rank := 2
	mk := func(tag float64) [][]float64 {
		f := make([][]float64, 7)
		for i := range f {
			f[i] = []float64{tag, float64(i)}
		}
		return f
	}
	perShard := [][][]float64{mk(1), nil, mk(3)}
	rows, missing := MergeMode0(r, perShard, rank)
	if len(rows) != 7 {
		t.Fatalf("merged height %d, want 7", len(rows))
	}
	for i := 0; i < 2; i++ {
		if rows[i][0] != 1 || rows[i][1] != float64(i) {
			t.Errorf("row %d = %v, want shard 0's row", i, rows[i])
		}
	}
	for i := 2; i < 4; i++ {
		if rows[i][0] != 0 || rows[i][1] != 0 {
			t.Errorf("row %d = %v, want zeros for missing shard", i, rows[i])
		}
	}
	for i := 4; i < 7; i++ {
		if rows[i][0] != 3 || rows[i][1] != float64(i) {
			t.Errorf("row %d = %v, want shard 2's row", i, rows[i])
		}
	}
	if len(missing) != 1 || missing[0] != (RowRange{Shard: 1, Lo: 2, Hi: 4}) {
		t.Fatalf("missing = %v, want [{1 2 4}]", missing)
	}

	// All shards reachable: no missing ranges.
	if _, miss := MergeMode0(r, [][][]float64{mk(1), mk(2), mk(3)}, rank); len(miss) != 0 {
		t.Fatalf("fully covered merge reported missing %v", miss)
	}

	// dims[0] < shards: empty blocks are not "missing" even when nil.
	r2, _ := NewRouter([]int{2, 4}, 3) // blocks [0,0) [0,1) [1,2) or similar tiling
	_, miss := MergeMode0(r2, [][][]float64{nil, nil, nil}, rank)
	want := 0
	for s := 0; s < 3; s++ {
		if lo, hi := r2.Block(s); lo < hi {
			want++
		}
	}
	if len(miss) != want {
		t.Fatalf("missing = %v, want %d non-empty blocks", miss, want)
	}
}
