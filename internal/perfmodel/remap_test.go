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

// TestDecidePure: SelectRemap never mutates the profile it reads and is
// deterministic for a fixed (profile, rank, options) triple — whatever
// other slices the same selector judged in between.
func TestDecidePure(t *testing.T) {
	dims := []int{4000, 3000}
	var pf Profiler
	var p SliceProfile
	x := slice2(dims, [][2]int32{{0, 0}, {0, 1}, {1, 0}, {3999, 2999}})
	pf.Profile(&p, x)
	before := append([]ModeProfile(nil), p.Modes...)

	sel := NewSelector(1)
	d1 := sel.SelectRemap(p, 16, 4)
	sel.SelectRemap(profileOf(100000, []int{100, 40}, []int{3, 20}), 16, 4)
	sel.SelectRemap(profileOf(1000, []int{100000, 50}, []int{90000, 50}), 32, 1)
	d2 := sel.SelectRemap(p, 16, 4)
	if d1 != d2 {
		t.Fatal("SelectRemap not deterministic")
	}
	for m := range before {
		if p.Modes[m] != before[m] {
			t.Fatal("SelectRemap mutated the profile")
		}
	}
}

// TestDecideThresholds drives the remap cost model through its three
// regimes with hand-set constants: not compactable (dense activity),
// compactable but not worth it (gain below build cost), and clearly
// profitable (large skipped zero fill).
func TestDecideThresholds(t *testing.T) {
	sel := NewSelector(1)

	mk := func(nzRows0 int) SliceProfile {
		return SliceProfile{
			NNZ: 1000,
			Modes: []ModeProfile{
				{Dim: 100000, NZRows: nzRows0},
				{Dim: 50, NZRows: 50},
			},
		}
	}

	// 90% of rows active: MaxNZFrac rejects every mode → never remap.
	if sel.SelectRemap(mk(90000), 16, 4) {
		t.Fatal("dense-activity slice must not remap")
	}
	// 1000 active rows of 100000: skipped zero fill dwarfs the build →
	// remap.
	if !sel.SelectRemap(mk(1000), 16, 4) {
		t.Fatal("skewed slice must remap")
	}
	// Same slice with one amortization iteration and a huge fixed cost:
	// the build cannot pay for itself.
	expensive := sel
	expensive.P.RemapFixedNs = 1e12
	if expensive.SelectRemap(mk(1000), 16, 1) {
		t.Fatal("unamortizable build must not remap")
	}
	// Empty slice is a no-op.
	if sel.SelectRemap(SliceProfile{}, 16, 4) {
		t.Fatal("empty profile must not remap")
	}
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
