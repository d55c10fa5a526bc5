// Package dense implements the dense linear-algebra substrate required by
// CP-stream: row-major float64 matrices, cache-blocked matrix products,
// Gram (SYRK-style) products, Hadamard products, Cholesky factorization
// with triangular solves and SPD inversion, norms, and the row
// gather/scatter primitives used by spCP-stream's nz/z factor partition.
//
// Matrices are small in one dimension (the decomposition rank K, at most
// a few hundred) and potentially large in the other (a tensor mode
// length), so kernels are organised as row-blocked loops with dense inner
// K-loops that the compiler can keep in registers.
package dense

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. Row i occupies
// Data[i*Stride : i*Stride+Cols]. For matrices created by this package
// Stride == Cols, but views produced by RowView share backing storage.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows (copying).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("dense: ragged rows in FromRows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	off := i * m.Stride
	return m.Data[off : off+m.Cols]
}

// RowView returns a matrix view of rows [lo, hi) sharing storage with m.
func (m *Matrix) RowView(lo, hi int) *Matrix {
	v := new(Matrix)
	v.SetRowView(m, lo, hi)
	return v
}

// SetRowView makes v a view of rows [lo, hi) of m, sharing m's storage:
// RowView into a caller-owned header, for loops that take a view per
// block and must not allocate one each time.
func (v *Matrix) SetRowView(m *Matrix, lo, hi int) {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("dense: RowView[%d:%d) out of range for %d rows", lo, hi, m.Rows))
	}
	*v = Matrix{
		Rows:   hi - lo,
		Cols:   m.Cols,
		Stride: m.Stride,
		Data:   m.Data[lo*m.Stride : (hi-1)*m.Stride+m.Cols : (hi-1)*m.Stride+m.Cols],
	}
}

// Clone returns a deep copy of m with compact stride.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: CopyFrom shape mismatch %d×%d ← %d×%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// T returns the transpose of m as a new compact matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Equal reports whether m and n have the same shape and elements within
// absolute tolerance tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), n.Row(i)
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and n, panicking on shape mismatch.
func (m *Matrix) MaxAbsDiff(n *Matrix) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("dense: MaxAbsDiff shape mismatch")
	}
	maxDiff := 0.0
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), n.Row(i)
		for j := range a {
			d := math.Abs(a[j] - b[j])
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff
}

// HasNaN reports whether any element is NaN or ±Inf.
func (m *Matrix) HasNaN() bool {
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %d×%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n"
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf(" %10.4g", m.At(i, j))
			}
		}
	}
	return s
}
