package perfmodel

import (
	"reflect"
	"testing"

	"spstream/internal/sptensor"
)

// slice2 builds a coalesced 2-way slice from coordinate pairs.
func slice2(dims []int, coords [][2]int32) *sptensor.Tensor {
	x := sptensor.New(dims...)
	for _, c := range coords {
		x.Append([]int32{c[0], c[1]}, 1)
	}
	x.Coalesce()
	return x
}

// TestScanOrder pins down the sortedness/pair-count scan: Pair01 counts
// distinct (mode0, mode1) prefixes on sorted slices, tolerates duplicate
// coordinates, and is zero (with Sorted=false) on unsorted input.
func TestScanOrder(t *testing.T) {
	dims := []int{10, 10, 10}
	x := sptensor.New(dims...)
	for _, c := range [][3]int32{{0, 0, 1}, {0, 0, 3}, {0, 2, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 5}} {
		x.Append(c[:], 1)
	}
	sorted, pairs := scanOrder(x)
	if !sorted {
		t.Fatal("lex-sorted slice (with a duplicate) must report sorted")
	}
	// Distinct (m0,m1) prefixes: (0,0), (0,2), (1,0).
	if pairs != 3 {
		t.Fatalf("Pair01 = %d, want 3", pairs)
	}

	y := sptensor.New(dims...)
	y.Append([]int32{5, 0, 0}, 1)
	y.Append([]int32{2, 0, 0}, 1)
	if sorted, pairs := scanOrder(y); sorted || pairs != 0 {
		t.Fatalf("unsorted slice: sorted=%v pairs=%d", sorted, pairs)
	}

	empty := sptensor.New(dims...)
	if sorted, pairs := scanOrder(empty); !sorted || pairs != 0 {
		t.Fatal("empty slice must be trivially sorted with zero pairs")
	}
}

// TestProfilerZeroAllocWithLayout: the pooled profile (counting pass
// plus storage-order scan) is allocation-free once warm.
func TestProfilerZeroAllocWithLayout(t *testing.T) {
	dims := []int{300, 200}
	var pf Profiler
	var p SliceProfile
	xs := []*sptensor.Tensor{
		slice2(dims, [][2]int32{{0, 0}, {1, 1}, {299, 199}}),
		slice2(dims, [][2]int32{{5, 5}, {7, 9}}),
	}
	pf.Profile(&p, xs[0])
	pf.Profile(&p, xs[1])
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		pf.Profile(&p, xs[i%2])
		i++
	})
	if allocs != 0 {
		t.Fatalf("profile allocates %v times per slice", allocs)
	}
	if want := Profile(xs[(i-1)%2]); !reflect.DeepEqual(p, want) {
		t.Fatalf("pooled profile %+v != fresh %+v", p, want)
	}
}
