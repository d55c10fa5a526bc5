package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when Cholesky factorization encounters a
// non-positive pivot, i.e. the input is not (numerically) symmetric
// positive definite.
var ErrNotSPD = errors.New("dense: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of an SPD matrix
// Φ = L·Lᵀ. The factor is stored compactly and reused across the many
// solves CP-stream performs against the same Φ within one ADMM call.
type Cholesky struct {
	n int
	l *Matrix // lower triangle, including diagonal; upper is garbage
	// lt is a compact n×n row-major copy of Lᵀ (upper triangle valid),
	// written by every factorization so the panel back-substitution
	// reads L's columns as contiguous rows. Grow-only.
	lt []float64
}

// Factor computes the Cholesky factorization of SPD matrix a (which is
// not modified). It returns ErrNotSPD when a pivot is not positive.
func Factor(a *Matrix) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factorize computes the factorization of a into the receiver, reusing
// its existing storage when the dimension matches. This is the
// allocation-free path for the per-iteration Φ factorizations of the
// inner ALS loop; a is not modified. On error the receiver's previous
// factor is invalid.
func (c *Cholesky) Factorize(a *Matrix) error {
	return c.FactorizeRidge(a, 0)
}

// FactorizeRidge is Factorize of a + ridge·I: the ridge is added to the
// receiver's copy of the diagonal, so a is not modified and no K×K
// temporary is needed (ADMM's Φ + ρI, once per solve).
func (c *Cholesky) FactorizeRidge(a *Matrix, ridge float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("dense: Cholesky of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if c.l == nil || c.l.Rows != n || c.l.Cols != n {
		c.l = NewMatrix(n, n)
	}
	if cap(c.lt) < n*n {
		c.lt = make([]float64, n*n)
	}
	c.lt = c.lt[:n*n]
	c.n = n
	l := c.l
	l.CopyFrom(a)
	AddScaledIdentity(l, l, ridge)
	for j := 0; j < n; j++ {
		rowJ := l.Row(j)
		d := rowJ[j]
		for p := 0; p < j; p++ {
			d -= rowJ[p] * rowJ[p]
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, j, d)
		}
		d = math.Sqrt(d)
		rowJ[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			rowI := l.Row(i)
			s := rowI[j]
			for p := 0; p < j; p++ {
				s -= rowI[p] * rowJ[p]
			}
			rowI[j] = s * inv
		}
	}
	for i := 0; i < n; i++ {
		rowI := l.Row(i)
		for p := 0; p <= i; p++ {
			c.lt[p*n+i] = rowI[p]
		}
	}
	return nil
}

// FactorRidge factors a + ridge·I without modifying a. CP-stream uses
// this for Φ + λI ridge solves.
func FactorRidge(a *Matrix, ridge float64) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.FactorizeRidge(a, ridge); err != nil {
		return nil, err
	}
	return c, nil
}

// N returns the factored dimension.
func (c *Cholesky) N() int { return c.n }

// L returns a copy of the lower-triangular factor with zeroed upper part.
func (c *Cholesky) L() *Matrix {
	out := NewMatrix(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(out.Row(i)[:i+1], c.l.Row(i)[:i+1])
	}
	return out
}

// SolveVec solves (L·Lᵀ)·x = b in place: b is overwritten with x.
func (c *Cholesky) SolveVec(b []float64) {
	if len(b) != c.n {
		panic("dense: SolveVec length mismatch")
	}
	// Forward substitution L·y = b.
	for i := 0; i < c.n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for p := 0; p < i; p++ {
			s -= row[p] * b[p]
		}
		b[i] = s / row[i]
	}
	// Back substitution Lᵀ·x = y.
	for i := c.n - 1; i >= 0; i-- {
		s := b[i]
		for p := i + 1; p < c.n; p++ {
			s -= c.l.Data[p*c.l.Stride+i] * b[p]
		}
		b[i] = s / c.l.Data[i*c.l.Stride+i]
	}
}

// panelRows is the number of right-hand sides the panel kernel carries
// through the substitutions together. One row's solve is a chain of
// n(n−1) dependent subtractions and runs at FP-add latency; four
// independent chains keep the FP units busy instead, and L (and Lᵀ) is
// read once per panel rather than once per row.
const panelRows = 4

// solvePanel is SolveVec on panelRows vectors at once. Every vector sees
// exactly SolveVec's operations in SolveVec's order — the same
// subtractions for ascending p, the same division by the diagonal — so
// the results are bit-identical; only the interleaving across vectors
// differs. The back substitution walks rows of the Lᵀ copy where
// SolveVec strides down columns of L.
func (c *Cholesky) solvePanel(b0, b1, b2, b3 []float64) {
	n := c.n
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		row := c.l.Data[i*c.l.Stride : i*c.l.Stride+i+1]
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for p, lv := range row[:i] {
			s0 -= lv * b0[p]
			s1 -= lv * b1[p]
			s2 -= lv * b2[p]
			s3 -= lv * b3[p]
		}
		d := row[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		row := c.lt[i*n : (i+1)*n]
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for p := i + 1; p < n; p++ {
			lv := row[p]
			s0 -= lv * b0[p]
			s1 -= lv * b1[p]
			s2 -= lv * b2[p]
			s3 -= lv * b3[p]
		}
		d := row[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// SolveRows solves X·(L·Lᵀ) = B for X where B is m×n, overwriting B with
// X. Because L·Lᵀ is symmetric, X = B·(LLᵀ)⁻¹ is obtained by solving
// (LLᵀ)·xᵢᵀ = bᵢᵀ for each row bᵢ — panelRows rows at a time, the
// remainder through SolveVec, every row bit-identical to SolveVec. This
// is exactly the "A ← Ψ·Φ⁻¹" update of CP-stream with Ψ stored
// row-major.
func (c *Cholesky) SolveRows(b *Matrix) {
	c.SolveRowsInto(b, b)
}

// SolveRowsInto writes the row-solve result into dst without modifying
// b (dst may be b, or a view of the same rows). Rows are copied a panel
// at a time, so the panel is solved while it is still in cache.
func (c *Cholesky) SolveRowsInto(dst, b *Matrix) {
	if dst.Rows != b.Rows || dst.Cols != b.Cols {
		panic("dense: SolveRowsInto shape mismatch")
	}
	if b.Cols != c.n {
		panic("dense: SolveRows column mismatch")
	}
	i := 0
	for ; i+panelRows <= b.Rows; i += panelRows {
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		if dst != b {
			copy(d0, b.Row(i))
			copy(d1, b.Row(i+1))
			copy(d2, b.Row(i+2))
			copy(d3, b.Row(i+3))
		}
		c.solvePanel(d0, d1, d2, d3)
	}
	for ; i < b.Rows; i++ {
		row := dst.Row(i)
		if dst != b {
			copy(row, b.Row(i))
		}
		c.SolveVec(row)
	}
}

// Inverse returns (L·Lᵀ)⁻¹ as a dense matrix. spCP-stream needs the
// explicit inverse only through products with K×K matrices, so a dense
// inverse of the K×K Φ is cheap and convenient.
func (c *Cholesky) Inverse() *Matrix {
	out := Identity(c.n)
	c.SolveRows(out) // rows of I solved against symmetric LLᵀ gives inverse
	return out
}

// SolveSPD is a convenience that factors a+ridge·I and solves X·a' = b,
// returning the new X (b unmodified).
func SolveSPD(a *Matrix, ridge float64, b *Matrix) (*Matrix, error) {
	c, err := FactorRidge(a, ridge)
	if err != nil {
		return nil, err
	}
	out := b.Clone()
	c.SolveRows(out)
	return out, nil
}
