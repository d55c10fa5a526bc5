package dense

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// solveVecRows is the reference the panel kernel must match bit for bit:
// the per-row SolveVec loop SolveRows used to be.
func solveVecRows(c *Cholesky, b *Matrix) {
	for i := 0; i < b.Rows; i++ {
		c.SolveVec(b.Row(i))
	}
}

func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: element (%d,%d) = %v (%#x) want %v (%#x)",
					what, i, j, g[j], math.Float64bits(g[j]), w[j], math.Float64bits(w[j]))
			}
		}
	}
}

// stridedCopy returns a copy of m as a RowView with Stride > Cols, the
// gaps poisoned with NaN so a kernel that strays outside a row shows.
func stridedCopy(m *Matrix) *Matrix {
	wide := NewMatrix(m.Rows+2, m.Cols+3)
	wide.Fill(math.NaN())
	v := wide.RowView(1, 1+m.Rows)
	v.Cols = m.Cols
	if m.Rows > 0 {
		v.Data = v.Data[:(m.Rows-1)*v.Stride+m.Cols]
	}
	v.CopyFrom(m)
	return v
}

func TestSolveRowsBitIdenticalToSolveVec(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 16, 17, 32} {
		c, err := Factor(randomSPD(int64(k), k))
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{0, 1, panelRows - 1, panelRows, panelRows + 1, 409, 410} {
			b := randomMatrix(int64(100*k+rows), rows, k)
			want := b.Clone()
			solveVecRows(c, want)
			name := fmt.Sprintf("k=%d rows=%d", k, rows)

			inPlace := b.Clone()
			c.SolveRows(inPlace)
			requireSameBits(t, name+" SolveRows", inPlace, want)

			into := NewMatrix(rows, k)
			src := b.Clone()
			c.SolveRowsInto(into, src)
			requireSameBits(t, name+" SolveRowsInto", into, want)
			requireSameBits(t, name+" SolveRowsInto source", src, b)

			view := stridedCopy(b)
			c.SolveRows(view)
			requireSameBits(t, name+" strided SolveRows", view, want)

			viewDst := stridedCopy(NewMatrix(rows, k))
			c.SolveRowsInto(viewDst, stridedCopy(b))
			requireSameBits(t, name+" strided SolveRowsInto", viewDst, want)

			// Two views of the same rows: the in-place form core uses.
			shared := b.Clone()
			c.SolveRowsInto(shared.RowView(0, rows), shared.RowView(0, rows))
			requireSameBits(t, name+" aliased views", shared, want)
		}
	}
}

// TestFactorizeReusesTranspose refactors one Cholesky at growing and
// shrinking n: the Lᵀ copy must follow, or the panel back substitution
// reads a stale factor.
func TestFactorizeReusesTranspose(t *testing.T) {
	var c Cholesky
	for step, n := range []int{5, 16, 3, 16, 17} {
		a := randomSPD(int64(10+step), n)
		if err := c.Factorize(a); err != nil {
			t.Fatal(err)
		}
		fresh, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		b := randomMatrix(int64(20+step), 2*panelRows+1, n)
		want := b.Clone()
		solveVecRows(fresh, want)
		c.SolveRows(b)
		requireSameBits(t, fmt.Sprintf("step %d n=%d", step, n), b, want)
	}
}

func TestFactorizeNotSPDThenRecovers(t *testing.T) {
	var c Cholesky
	bad := Identity(4)
	bad.Set(2, 2, -1)
	if err := c.Factorize(bad); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
	if err := c.FactorizeRidge(bad, 0.5); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("ridge 0.5 on pivot −1: expected ErrNotSPD, got %v", err)
	}
	if err := c.FactorizeRidge(bad, 3); err != nil {
		t.Fatal(err)
	}
	ridged := bad.Clone()
	AddScaledIdentity(ridged, ridged, 3)
	fresh, err := Factor(ridged)
	if err != nil {
		t.Fatal(err)
	}
	b := randomMatrix(7, panelRows+2, 4)
	want := b.Clone()
	solveVecRows(fresh, want)
	c.SolveRows(b)
	requireSameBits(t, "after failed factorization", b, want)
	if bad.At(2, 2) != -1 {
		t.Fatal("FactorizeRidge modified its input")
	}
}

var benchSink float64

// BenchmarkSolveRows times the row solve at the shape the constrained
// update runs it (one 1700×16 mode), in place, and reports ns/row.
func BenchmarkSolveRows(b *testing.B) {
	const rows, k = 1700, 16
	c, err := Factor(randomSPD(1, k))
	if err != nil {
		b.Fatal(err)
	}
	rhs := randomMatrix(2, rows, k)
	x := NewMatrix(rows, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SolveRowsInto(x, rhs)
	}
	benchSink = x.Data[0]
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}
