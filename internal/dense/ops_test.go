package dense

import (
	"testing"
	"testing/quick"
)

func TestAddSubScaleAXPY(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := NewMatrix(2, 2)
	Add(sum, a, b)
	if sum.At(1, 1) != 44 {
		t.Fatal("Add wrong")
	}
	diff := NewMatrix(2, 2)
	Sub(diff, b, a)
	if diff.At(0, 0) != 9 {
		t.Fatal("Sub wrong")
	}
	Scale(diff, 2, diff)
	if diff.At(0, 0) != 18 {
		t.Fatal("Scale in place wrong")
	}
	AXPY(sum, -1, b)
	if !sum.Equal(a, 0) {
		t.Fatal("AXPY wrong")
	}
}

func TestHadamardCommutative(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMatrix(seed, 4, 4)
		b := randomMatrix(seed+1, 4, 4)
		ab := NewMatrix(4, 4)
		ba := NewMatrix(4, 4)
		Hadamard(ab, a, b)
		Hadamard(ba, b, a)
		return ab.Equal(ba, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaledIdentity(t *testing.T) {
	a := NewMatrix(3, 3)
	AddScaledIdentity(a, a, 2.5)
	if a.At(0, 0) != 2.5 || a.At(0, 1) != 0 {
		t.Fatal("AddScaledIdentity wrong")
	}
}

func TestTraceAndNorms(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 4}})
	if Trace(a) != 7 {
		t.Fatal("Trace wrong")
	}
	if FrobNorm2(a) != 25 {
		t.Fatal("FrobNorm2 wrong")
	}
	if FrobNorm(a) != 5 {
		t.Fatal("FrobNorm wrong")
	}
	b := NewMatrix(2, 2)
	if FrobNorm2Diff(a, b) != 25 {
		t.Fatal("FrobNorm2Diff wrong")
	}
}

func TestColNorms2Accumulates(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	acc := []float64{100, 200}
	ColNorms2(acc, a)
	if acc[0] != 110 || acc[1] != 220 {
		t.Fatalf("ColNorms2 = %v", acc)
	}
}

func TestScaleColumnsRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	ScaleColumns(a, a, []float64{10, 100})
	if a.At(1, 0) != 30 || a.At(0, 1) != 200 {
		t.Fatalf("ScaleColumns wrong: %v", a)
	}
	ScaleRows(a, a, []float64{1, 0.5})
	if a.At(1, 0) != 15 || a.At(0, 0) != 10 {
		t.Fatalf("ScaleRows wrong: %v", a)
	}
}

func TestGatherScatterRows(t *testing.T) {
	src := FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	g := GatherRows(src, []int{3, 1})
	if g.At(0, 0) != 3 || g.At(1, 1) != 1 {
		t.Fatalf("GatherRows wrong: %v", g)
	}
	dst := NewMatrix(4, 2)
	ScatterRows(dst, g, []int{3, 1})
	if dst.At(3, 0) != 3 || dst.At(1, 0) != 1 || dst.At(0, 0) != 0 {
		t.Fatalf("ScatterRows wrong: %v", dst)
	}
	g2 := NewMatrix(2, 2)
	GatherRowsInto(g2, src, []int{0, 2})
	if g2.At(1, 1) != 2 {
		t.Fatal("GatherRowsInto wrong")
	}
}

// Property: gather then scatter with the same index list restores the
// gathered rows exactly.
func TestGatherScatterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := randomMatrix(seed, 8, 3)
		idx := []int{1, 4, 6}
		g := GatherRows(src, idx)
		dst := src.Clone()
		dst.Zero()
		ScatterRows(dst, g, idx)
		for _, i := range idx {
			for j := 0; j < 3; j++ {
				if dst.At(i, j) != src.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
