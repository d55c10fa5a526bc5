package sptensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceSortByMode is the comparator sort SortByMode replaced, kept
// as the order oracle: a stable sort of an []int permutation, primary
// mode first, the other modes in order as tie-breakers.
func referenceSortByMode(t *Tensor, mode int) {
	n := t.NNZ()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	order := make([]int, 0, len(t.Dims))
	order = append(order, mode)
	for m := range t.Dims {
		if m != mode {
			order = append(order, m)
		}
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for _, m := range order {
			ia, ib := t.Inds[m][perm[a]], t.Inds[m][perm[b]]
			if ia != ib {
				return ia < ib
			}
		}
		return false
	})
	for m := range t.Inds {
		col := t.Inds[m]
		next := make([]int32, len(col))
		for i, p := range perm {
			next[i] = col[p]
		}
		t.Inds[m] = next
	}
	vals := make([]float64, len(t.Vals))
	for i, p := range perm {
		vals[i] = t.Vals[p]
	}
	t.Vals = vals
}

// referenceCoalesce is Coalesce over the comparator sort: duplicates
// summed left to right in sorted order, exact zeros dropped.
func referenceCoalesce(t *Tensor) {
	if t.NNZ() == 0 {
		return
	}
	referenceSortByMode(t, 0)
	write := 0
	for read := 0; read < t.NNZ(); read++ {
		if write > 0 && t.sameCoords(write-1, read) {
			t.Vals[write-1] += t.Vals[read]
			continue
		}
		for m := range t.Inds {
			t.Inds[m][write] = t.Inds[m][read]
		}
		t.Vals[write] = t.Vals[read]
		write++
	}
	keep := 0
	for e := 0; e < write; e++ {
		if t.Vals[e] != 0 {
			for m := range t.Inds {
				t.Inds[m][keep] = t.Inds[m][e]
			}
			t.Vals[keep] = t.Vals[e]
			keep++
		}
	}
	for m := range t.Inds {
		t.Inds[m] = t.Inds[m][:keep]
	}
	t.Vals = t.Vals[:keep]
}

// sameBits reports the first difference between two tensors, comparing
// every coordinate and the bits of every value; "" when equal.
func sameBits(got, want *Tensor) string {
	if got.NNZ() != want.NNZ() {
		return fmt.Sprintf("nnz %d, want %d", got.NNZ(), want.NNZ())
	}
	for m := range want.Inds {
		for e, c := range want.Inds[m] {
			if got.Inds[m][e] != c {
				return fmt.Sprintf("nonzero %d mode %d: coordinate %d, want %d", e, m, got.Inds[m][e], c)
			}
		}
	}
	for e, v := range want.Vals {
		if math.Float64bits(got.Vals[e]) != math.Float64bits(v) {
			return fmt.Sprintf("nonzero %d: value %v, want %v", e, got.Vals[e], v)
		}
	}
	return ""
}

// orderCase draws nnz nonzeros in dims. With dups, coordinates come from
// a pool of about nnz/16 points, so most coordinates repeat and the
// sums' bits depend on the order duplicates are added in; with band,
// each coordinate lies in the top 300 indices of its mode, the shape of
// a small window in a long mode.
func orderCase(dims []int, nnz int, seed int64, dups, band bool) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	draw := func(m int) int32 {
		if band && dims[m] > 300 {
			return int32(dims[m] - 300 + rng.Intn(300))
		}
		return int32(rng.Intn(dims[m]))
	}
	pool := New(dims...)
	coord := make([]int32, len(dims))
	for e := 0; e < 1+nnz/16; e++ {
		for m := range dims {
			coord[m] = draw(m)
		}
		pool.Append(coord, 0)
	}
	x := New(dims...)
	for e := 0; e < nnz; e++ {
		p := rng.Intn(pool.NNZ())
		for m := range dims {
			if dups {
				coord[m] = pool.Inds[m][p]
			} else {
				coord[m] = draw(m)
			}
		}
		x.Append(coord, rng.NormFloat64())
	}
	// Exact cancellations, so the zero-drop is compared too.
	if dups && nnz > 0 {
		for m := range dims {
			coord[m] = x.Inds[m][0]
		}
		x.Append(coord, -x.Vals[0])
	}
	return x
}

// orderDims are the lengths the order oracle cycles through: a unit
// mode, both sides of a 16-bit span, and a 20-bit mode.
var orderDims = []int{1, 1<<16 - 1, 1<<16 + 1, 1 << 20}

// TestSortByModeMatchesComparator pins SortByMode and Coalesce to the
// comparator sort element for element, coordinates and value bits: N =
// 1…5 with every mode primary, every rotation of orderDims, nnz 0, 1 and
// 2 000, with and without heavy duplicates, plus a 150 k slice.
func TestSortByModeMatchesComparator(t *testing.T) {
	check := func(name string, x *Tensor) {
		t.Helper()
		for mode := range x.Dims {
			got, want := x.Clone(), x.Clone()
			got.SortByMode(mode)
			referenceSortByMode(want, mode)
			if d := sameBits(got, want); d != "" {
				t.Fatalf("%s SortByMode(%d): %s", name, mode, d)
			}
			// Input already in order takes the early exit.
			got.SortByMode(mode)
			if d := sameBits(got, want); d != "" {
				t.Fatalf("%s SortByMode(%d) of its own output: %s", name, mode, d)
			}
		}
		got, want := x.Clone(), x.Clone()
		got.Coalesce()
		referenceCoalesce(want)
		if d := sameBits(got, want); d != "" {
			t.Fatalf("%s Coalesce: %s", name, d)
		}
	}
	seed := int64(1)
	for n := 1; n <= 5; n++ {
		for rot := range orderDims {
			dims := make([]int, n)
			for m := range dims {
				dims[m] = orderDims[(m+rot)%len(orderDims)]
			}
			for _, nnz := range []int{0, 1, 2000} {
				for _, dups := range []bool{false, true} {
					for _, band := range []bool{false, true} {
						seed++
						name := fmt.Sprintf("dims=%v/nnz=%d/dups=%v/band=%v", dims, nnz, dups, band)
						check(name, orderCase(dims, nnz, seed, dups, band))
					}
				}
			}
		}
	}
	big := []int{1 << 20, 1<<16 + 1, 1<<16 - 1}
	check("150k", orderCase(big, 150_000, 7, false, false))
	check("150k/dups", orderCase(big, 150_000, 8, true, false))
}

// TestCoalesceSumsInArrivalOrder: three duplicates whose sum depends on
// the order of addition must come out as (a+b)+c in arrival order.
func TestCoalesceSumsInArrivalOrder(t *testing.T) {
	a, b, c := 1e16, -1e16, 1.0
	x := New(2, 2)
	x.Append([]int32{1, 1}, a)
	x.Append([]int32{0, 0}, 5)
	x.Append([]int32{1, 1}, b)
	x.Append([]int32{1, 1}, c)
	x.Coalesce()
	if x.NNZ() != 2 || x.Vals[1] != (a+b)+c {
		t.Fatalf("coalesced %v, want [5 %v]", x.Vals, (a+b)+c)
	}
}
