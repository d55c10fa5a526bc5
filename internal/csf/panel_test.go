package csf

import (
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// refWalk3Into is the scratch-row three-way walk that the register
// panel in walk3Into replaced, kept as it was: one partial row in
// memory per level-1 node.
func (t *tree) refWalk3Into(sc []float64, lo, hi int, fB, fC *dense.Matrix, dst []float64, k int) {
	l1, l2 := &t.levels[1], &t.levels[2]
	acc := sc[:k]
	for c := lo; c < hi; c++ {
		rb := fB.Row(int(l1.IDs[c]))
		for j := range acc {
			acc[j] = 0
		}
		for leaf := l1.Ptr[c]; leaf < l1.Ptr[c+1]; leaf++ {
			rc := fC.Row(int(l2.IDs[leaf]))
			v := t.vals[l2.Ptr[leaf]]
			for e := l2.Ptr[leaf] + 1; e < l2.Ptr[leaf+1]; e++ {
				v += t.vals[e]
			}
			for j := 0; j < k; j++ {
				acc[j] += v * rc[j]
			}
		}
		for j := 0; j < k; j++ {
			dst[j] += acc[j] * rb[j]
		}
	}
}

// refMTTKRP is Engine.MTTKRP with the tiles run serially in tile order
// through the scratch-row walks (each tile writes rows or a shard slot
// no other tile touches, so the schedule cannot matter), then the shard
// fold in tile order.
func refMTTKRP(e *Engine, out *dense.Matrix, factors []*dense.Matrix, mode int) {
	t := e.tree(mode)
	k := out.Cols
	out.Zero()
	if len(t.vals) == 0 {
		return
	}
	n := len(t.order)
	sc := make([]float64, n*k)
	shards := make([]float64, t.nSplit*k)
	ids, ptr := t.levels[0].IDs, t.levels[0].Ptr
	walk := func(lo, hi int, dst []float64) {
		if n == 3 {
			t.refWalk3Into(sc, lo, hi, factors[t.order[1]], factors[t.order[2]], dst, k)
		} else {
			t.walkInto(sc, k, 1, lo, hi, factors, dst, k)
		}
	}
	for i := range t.tiles {
		tl := &t.tiles[i]
		if tl.shard >= 0 {
			walk(int(tl.cLo), int(tl.cHi), shards[int(tl.shard)*k:int(tl.shard)*k+k])
			continue
		}
		for root := tl.rLo; root < tl.rHi; root++ {
			walk(int(ptr[root]), int(ptr[root+1]), out.Row(int(ids[root])))
		}
	}
	for i := range t.tiles {
		if tl := &t.tiles[i]; tl.shard >= 0 {
			row := out.Row(int(ids[tl.rLo]))
			for j, v := range shards[int(tl.shard)*k : int(tl.shard)*k+k] {
				row[j] += v
			}
		}
	}
}

// stridedFactors returns rank-k factors that are RowViews into wider
// backing matrices (Stride = k+3) with poisoned padding, a −0 entry
// and, with nonFinite set, +Inf and NaN entries.
func stridedFactors(seed uint64, dims []int, k int, nonFinite bool) []*dense.Matrix {
	r := synth.NewRNG(seed)
	out := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		stride := k + 3
		back := &dense.Matrix{Rows: d + 2, Cols: k, Stride: stride, Data: make([]float64, (d+2)*stride)}
		for i := range back.Data {
			back.Data[i] = math.NaN()
		}
		f := back.RowView(1, d+1)
		for i := 0; i < d; i++ {
			row := f.Row(i)
			for j := range row {
				row[j] = r.NormFloat64()
			}
		}
		f.Row(1 % d)[0] = math.Copysign(0, -1)
		if nonFinite {
			f.Row(0)[k-1] = math.Inf(1)
			f.Row(d - 1)[k/2] = math.NaN()
		}
		out[m] = f
	}
	return out
}

// TestWalk3BitIdentical pins Engine.MTTKRP to the scratch-row walk it
// replaced, for ranks around the panel width, worker counts below, at
// and above the pool size, strided factors, and trees with split roots
// (shard tiles), duplicate coordinates (multi-value leaves), rows with
// a single nonzero, and values −0, ±Inf and NaN; the four-way case runs
// the unchanged N-way walk through the same harness.
func TestWalk3BitIdentical(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	split := rawSlice(5, []int{2, 70, 90}, 14000) // both roots above splitThresholdNNZ
	dup := rawSlice(6, []int{6, 8, 5}, 500)       // ≈ 2 values per leaf
	sparse := randomSlice(7, []int{40, 30, 50}, 60)
	hostile := rawSlice(8, []int{9, 12, 7}, 400)
	hostile.Vals[3] = math.Copysign(0, -1)
	hostile.Vals[30] = math.Inf(1)
	hostile.Vals[200] = math.Inf(-1)
	hostile.Vals[333] = math.NaN()
	fourWay := rawSlice(9, []int{5, 7, 4, 6}, 700)
	cases := []struct {
		name      string
		x         *sptensor.Tensor
		nonFinite bool
	}{
		{"split-roots", split, false},
		{"duplicates", dup, false},
		{"single-nonzero-rows", sparse, false},
		{"non-finite", hostile, true},
		{"four-way", fourWay, false},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 7, 8, 9, 16, 17, 24, 32} {
			factors := stridedFactors(uint64(k), tc.x.Dims, k, tc.nonFinite)
			for _, workers := range []int{1, 2, 7} {
				eng := NewEngineWithPool(workers, pool)
				eng.Begin(tc.x)
				if tc.name == "split-roots" && eng.TreeStats(0).ShardTiles == 0 {
					t.Fatal("split-roots slice produced no shard tiles")
				}
				for mode, d := range tc.x.Dims {
					want := dense.NewMatrix(d, k)
					refMTTKRP(eng, want, factors, mode)
					got := dense.NewMatrix(d, k)
					got.Fill(3)
					eng.MTTKRP(got, factors, mode)
					for i := 0; i < d; i++ {
						for j, w := range want.Row(i) {
							g := got.At(i, j)
							// NaN payloads follow the compiler's operand order,
							// not the kernel: any two NaNs match.
							if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
								t.Fatalf("%s K=%d W=%d mode %d: [%d,%d] = %x, reference %x", tc.name, k, workers, mode, i, j, math.Float64bits(g), math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}
