package mttkrp

import (
	"testing"
	"testing/quick"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// remap is a throwaway Remapper's view of x.
func remap(x *sptensor.Tensor) *Remapped {
	var r Remapper
	return r.Begin(x)
}

// gatherFactors returns, per mode, the len(NZ[m])×K gather of full[m]'s
// nz rows.
func gatherFactors(rm *Remapped, full []*dense.Matrix) []*dense.Matrix {
	out := make([]*dense.Matrix, len(full))
	for m, f := range full {
		out[m] = dense.NewMatrix(len(rm.NZ[m]), f.Cols)
		rm.GatherMode(out[m], f, m)
	}
	return out
}

func TestRemapStructure(t *testing.T) {
	x := sptensor.New(10, 20)
	x.Append([]int32{7, 3}, 1)
	x.Append([]int32{2, 3}, 2)
	x.Append([]int32{7, 15}, 3)
	rm := remap(x)
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
		rm := remap(x)
		gathered := gatherFactors(rm, factors)
		c := NewComputer(2)
		for mode := range dims {
			full := dense.NewMatrix(dims[mode], 3)
			Sequential(full, x, factors, mode)
			sp := dense.NewMatrix(len(rm.NZ[mode]), 3)
			mustMTTKRP(t, compiled(t, c, rm.X), sp, gathered, mode)
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
	rm := remap(x)
	full := dense.NewMatrix(6, 2)
	for i := range full.Data {
		full.Data[i] = float64(i)
	}
	g := gatherFactors(rm, []*dense.Matrix{full, full})
	if g[0].Rows != 2 || g[0].At(1, 0) != full.At(4, 0) || g[0].At(0, 1) != full.At(1, 1) {
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
