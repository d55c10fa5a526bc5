package mttkrp

import (
	"testing"
	"testing/quick"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

func TestRemapStructure(t *testing.T) {
	x := sptensor.New(10, 20)
	x.Append([]int32{7, 3}, 1)
	x.Append([]int32{2, 3}, 2)
	x.Append([]int32{7, 15}, 3)
	rm := Remap(x)
	// nz sets sorted and correct.
	if len(rm.NZ[0]) != 2 || rm.NZ[0][0] != 2 || rm.NZ[0][1] != 7 {
		t.Fatalf("NZ[0] = %v", rm.NZ[0])
	}
	if len(rm.NZ[1]) != 2 || rm.NZ[1][0] != 3 || rm.NZ[1][1] != 15 {
		t.Fatalf("NZ[1] = %v", rm.NZ[1])
	}
	// Local dims shrink to the nz counts.
	if rm.X.Dims[0] != 2 || rm.X.Dims[1] != 2 {
		t.Fatalf("local dims = %v", rm.X.Dims)
	}
	// Coordinates renumbered: global 7 → local 1, global 3 → local 0.
	if rm.X.Inds[0][0] != 1 || rm.X.Inds[1][0] != 0 {
		t.Fatal("remapped coordinates wrong")
	}
	if err := rm.X.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: spMTTKRP — the compiled plan over the remapped slice and
// gathered factors, which is what the remapped paths of core execute —
// equals the nz rows of the full MTTKRP, and the z rows of the full
// MTTKRP are exactly zero (the fact Eq. 5 exploits).
func TestRowSparseMatchesFullMTTKRP(t *testing.T) {
	f := func(seed uint64) bool {
		dims := []int{30, 40, 25}
		x := randomSlice(seed, dims, 80) // sparse: many zero rows
		factors := randomFactors(seed+5, dims, 3)
		rm := Remap(x)
		gathered := rm.GatherFactors(factors)
		c := NewComputer(2)
		for mode := range dims {
			full := dense.NewMatrix(dims[mode], 3)
			Sequential(full, x, factors, mode)
			sp := dense.NewMatrix(len(rm.NZ[mode]), 3)
			c.PlanMTTKRP(sp, c.NewPlan(rm.X), gathered, mode)
			// nz rows match.
			for local, global := range rm.NZ[mode] {
				for k := 0; k < 3; k++ {
					if diff := sp.At(local, k) - full.At(int(global), k); diff > 1e-9 || diff < -1e-9 {
						return false
					}
				}
			}
			// z rows of the full result are zero.
			nz := rm.NZ[mode]
			for i := 0; i < dims[mode]; i++ {
				if len(nz) > 0 && int(nz[0]) == i {
					nz = nz[1:]
					continue
				}
				for k := 0; k < 3; k++ {
					if full.At(i, k) != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterMode(t *testing.T) {
	x := sptensor.New(6, 6)
	x.Append([]int32{1, 2}, 1)
	x.Append([]int32{4, 2}, 1)
	rm := Remap(x)
	full := dense.NewMatrix(6, 2)
	for i := range full.Data {
		full.Data[i] = float64(i)
	}
	g := rm.GatherFactors([]*dense.Matrix{full, full})
	if g[0].Rows != 2 || g[0].At(1, 0) != full.At(4, 0) {
		t.Fatal("gather wrong")
	}
	// Refresh in place through GatherMode.
	g2 := dense.NewMatrix(2, 2)
	rm.GatherMode(g2, full, 0)
	if g2.At(0, 1) != full.At(1, 1) {
		t.Fatal("GatherMode wrong")
	}
	// Scatter modified rows back.
	mod := g[0].Clone()
	mod.Fill(-1)
	rm.ScatterMode(full, mod, 0)
	if full.At(1, 0) != -1 || full.At(4, 1) != -1 {
		t.Fatal("scatter did not write nz rows")
	}
	if full.At(0, 0) != 0 {
		t.Fatal("scatter touched a z row")
	}
}

func TestSetDiffUnion(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{3, 4, 7}
	diff := SetDiff(a, b)
	if len(diff) != 2 || diff[0] != 1 || diff[1] != 5 {
		t.Fatalf("SetDiff = %v", diff)
	}
	if got := SetDiff(b, a); len(got) != 1 || got[0] != 4 {
		t.Fatalf("SetDiff reverse = %v", got)
	}
	if got := SetDiff(nil, b); len(got) != 0 {
		t.Fatalf("SetDiff nil = %v", got)
	}
}

// Property: SetDiff(B, A) is sorted, holds exactly the elements of B
// not in A, and so satisfies |B\A| + |A∩B| = |B|.
func TestSetAlgebraProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := dedupSorted(xs)
		b := dedupSorted(ys)
		d := SetDiff(b, a)
		inA, inB := map[int32]bool{}, map[int32]bool{}
		for _, v := range a {
			inA[v] = true
		}
		common := 0
		for _, v := range b {
			inB[v] = true
			if inA[v] {
				common++
			}
		}
		for _, v := range d {
			if inA[v] || !inB[v] {
				return false
			}
		}
		return len(d)+common == len(b) && SortedInt32(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func dedupSorted(xs []uint8) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range xs {
		seen[int32(x)] = true
	}
	for i := int32(0); i < 256; i++ {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}
