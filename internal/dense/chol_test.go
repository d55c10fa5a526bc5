package dense

import (
	"errors"
	"testing"
	"testing/quick"
)

// randomSPD builds A = BᵀB + I, guaranteed SPD.
func randomSPD(seed int64, n int) *Matrix {
	b := randomMatrix(seed, n+3, n)
	out := NewMatrix(n, n)
	Gram(out, b)
	AddScaledIdentity(out, out, 1)
	return out
}

func TestFactorRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		a := randomSPD(seed, 6)
		c, err := Factor(a)
		if err != nil {
			return false
		}
		l := c.L()
		recon := NewMatrix(6, 6)
		MulABt(recon, l, l)
		return recon.Equal(a, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFactorRejectsIndefinite(t *testing.T) {
	a := Identity(3)
	a.Set(2, 2, -1)
	if _, err := Factor(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
}

func TestFactorRejectsNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSolveVec(t *testing.T) {
	a := randomSPD(1, 5)
	c, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 3, -4, 5}
	b := make([]float64, 5)
	MulVec(b, a, x)
	c.SolveVec(b)
	for i := range x {
		if !almostEqual(b[i], x[i], 1e-9) {
			t.Fatalf("SolveVec[%d] = %v want %v", i, b[i], x[i])
		}
	}
}

func TestSolveRowsIsRightInverse(t *testing.T) {
	// X = B·A⁻¹ must satisfy X·A = B.
	a := randomSPD(2, 4)
	c, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randomMatrix(3, 6, 4)
	x := b.Clone()
	c.SolveRows(x)
	recon := NewMatrix(6, 4)
	MulAB(recon, x, a)
	if !recon.Equal(b, 1e-8) {
		t.Fatalf("SolveRows: X·A ≠ B (max diff %g)", recon.MaxAbsDiff(b))
	}
}

func TestInverse(t *testing.T) {
	a := randomSPD(4, 5)
	c, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := c.Inverse()
	prod := NewMatrix(5, 5)
	MulAB(prod, a, inv)
	if !prod.Equal(Identity(5), 1e-8) {
		t.Fatalf("A·A⁻¹ ≠ I (max diff %g)", prod.MaxAbsDiff(Identity(5)))
	}
}

func TestFactorRidge(t *testing.T) {
	// A singular matrix becomes factorable with a ridge.
	a := NewMatrix(3, 3) // zero matrix: not SPD
	if _, err := Factor(a); err == nil {
		t.Fatal("zero matrix should not factor")
	}
	c, err := FactorRidge(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	// (0 + 2I)⁻¹ should halve.
	b := []float64{2, 4, 6}
	c.SolveVec(b)
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEqual(b[i], want[i], 1e-12) {
			t.Fatalf("ridge solve[%d] = %v", i, b[i])
		}
	}
}

func TestSolveSPD(t *testing.T) {
	a := randomSPD(9, 4)
	b := randomMatrix(10, 3, 4)
	x, err := SolveSPD(a, 0, b)
	if err != nil {
		t.Fatal(err)
	}
	recon := NewMatrix(3, 4)
	MulAB(recon, x, a)
	if !recon.Equal(b, 1e-8) {
		t.Fatal("SolveSPD failed round trip")
	}
}
