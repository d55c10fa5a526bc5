package mttkrp

import (
	"slices"
	"testing"

	"spstream/internal/dense"
)

// remapEqual compares a pooled Begin result against a throwaway remap of
// the same slice: NZ sets, local dims, and translated coordinates.
func remapEqual(t *testing.T, got, want *Remapped) {
	t.Helper()
	for m := range want.NZ {
		if len(got.NZ[m]) != len(want.NZ[m]) {
			t.Fatalf("mode %d: NZ len %d != %d", m, len(got.NZ[m]), len(want.NZ[m]))
		}
		for i := range want.NZ[m] {
			if got.NZ[m][i] != want.NZ[m][i] {
				t.Fatalf("mode %d: NZ[%d] = %d, want %d", m, i, got.NZ[m][i], want.NZ[m][i])
			}
		}
		if got.X.Dims[m] != want.X.Dims[m] {
			t.Fatalf("mode %d: local dim %d != %d", m, got.X.Dims[m], want.X.Dims[m])
		}
		for e := range want.X.Inds[m] {
			if got.X.Inds[m][e] != want.X.Inds[m][e] {
				t.Fatalf("mode %d: ind[%d] = %d, want %d", m, e, got.X.Inds[m][e], want.X.Inds[m][e])
			}
		}
	}
}

// A pooled Remapper fed a stream of slices with shifting nz sets must
// produce exactly what a fresh Remapper produces for every slice — the
// targeted LUT reset may leave no stale local ids behind.
func TestRemapperPooledReuse(t *testing.T) {
	dims := []int{40, 25, 33}
	var r Remapper
	for s := 0; s < 6; s++ {
		// Vary density a lot so NZ sets both grow and shrink.
		nnz := []int{60, 5, 90, 1, 40, 70}[s]
		x := randomSlice(uint64(100+s), dims, nnz)
		got := r.Begin(x)
		remapEqual(t, got, remap(x))
		if err := got.X.Validate(); err != nil {
			t.Fatal(err)
		}
		for m := range dims {
			if !slices.IsSorted(got.NZ[m]) {
				t.Fatalf("slice %d mode %d: NZ not sorted", s, m)
			}
		}
	}
}

// Steady-state remapping allocates nothing: once the pooled buffers have
// grown to the stream's working size, Begin is allocation-free.
func TestRemapperSteadyStateAllocs(t *testing.T) {
	dims := []int{300, 200, 250}
	a := randomSlice(1, dims, 500)
	b := randomSlice(2, dims, 480)
	var r Remapper
	r.Begin(a)
	r.Begin(b)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if i%2 == 0 {
			r.Begin(a)
		} else {
			r.Begin(b)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Begin allocates %v times per run", allocs)
	}
}

// FuzzRemapRoundTrip drives Begin with random slices and checks the two
// contracts spCP-stream's remapped slice relies on: (1) global → local →
// global coordinate renumbering is the identity on every nonzero, and
// (2) the MTTKRP computed in the local space, scattered back through NZ,
// equals Sequential over the original slice.
func FuzzRemapRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3))
	f.Add(uint64(7), uint8(9), uint8(120))
	f.Add(uint64(42), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, dimSel, nnzSel uint8) {
		dims := []int{3 + int(dimSel)%48, 2 + int(dimSel>>2)%31, 2 + int(dimSel>>4)%17}
		nnz := 1 + int(nnzSel)
		x := randomSlice(seed, dims, nnz)
		var rp Remapper
		rm := rp.Begin(x)
		if err := rm.X.Validate(); err != nil {
			t.Fatalf("remapped slice invalid: %v", err)
		}
		// (1) Round-trip every coordinate through the NZ table.
		for m := range dims {
			if len(rm.NZ[m]) != rm.X.Dims[m] {
				t.Fatalf("mode %d: local dim %d != |NZ| %d", m, rm.X.Dims[m], len(rm.NZ[m]))
			}
			for e, loc := range rm.X.Inds[m] {
				if g := rm.NZ[m][loc]; g != x.Inds[m][e] {
					t.Fatalf("mode %d nnz %d: local %d → global %d, want %d", m, e, loc, g, x.Inds[m][e])
				}
			}
		}
		// (2) Local-space MTTKRP equals the global-space one.
		k := 3
		factors := randomFactors(seed+9, dims, k)
		gathered := gatherFactors(rm, factors)
		for mode := range dims {
			local := dense.NewMatrix(len(rm.NZ[mode]), k)
			Sequential(local, rm.X, gathered, mode)
			want := dense.NewMatrix(dims[mode], k)
			Sequential(want, x, factors, mode)
			back := dense.NewMatrix(dims[mode], k)
			rm.ScatterMode(back, local, mode)
			for i := range want.Data {
				d := back.Data[i] - want.Data[i]
				if d > 1e-9 || d < -1e-9 {
					t.Fatalf("mode %d: local MTTKRP diverges at %d: %g vs %g", mode, i, back.Data[i], want.Data[i])
				}
			}
		}
	})
}
