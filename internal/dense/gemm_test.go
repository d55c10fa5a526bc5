package dense

import (
	"fmt"
	"testing"
	"testing/quick"
)

// naiveMulAB is the O(mnk) reference product.
func naiveMulAB(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			sum := 0.0
			for p := 0; p < a.Cols; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func TestMulABAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMatrix(seed, 7, 5)
		b := randomMatrix(seed+1, 5, 4)
		got := NewMatrix(7, 4)
		MulAB(got, a, b)
		return got.Equal(naiveMulAB(a, b), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulABParallelMatchesSerial(t *testing.T) {
	a := randomMatrix(3, 100, 8)
	b := randomMatrix(4, 8, 8)
	serial := NewMatrix(100, 8)
	par := NewMatrix(100, 8)
	MulAB(serial, a, b)
	MulABParallel(par, a, b, 4)
	if !serial.Equal(par, 0) {
		t.Fatal("parallel MulAB differs from serial")
	}
}

func TestMulAtBAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMatrix(seed, 9, 4)
		b := randomMatrix(seed+2, 9, 3)
		got := NewMatrix(4, 3)
		MulAtB(got, a, b)
		return got.Equal(naiveMulAB(a.T(), b), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAtBParallelDeterministic(t *testing.T) {
	a := randomMatrix(5, 200, 6)
	b := randomMatrix(6, 200, 6)
	first := NewMatrix(6, 6)
	MulAtBParallel(first, a, b, 4)
	for trial := 0; trial < 5; trial++ {
		again := NewMatrix(6, 6)
		MulAtBParallel(again, a, b, 4)
		if !first.Equal(again, 0) {
			t.Fatal("MulAtBParallel is not deterministic")
		}
	}
	serial := NewMatrix(6, 6)
	MulAtB(serial, a, b)
	if !first.Equal(serial, 1e-9) {
		t.Fatal("parallel MulAtB far from serial")
	}
}

func TestMulABtAgainstNaive(t *testing.T) {
	a := randomMatrix(11, 6, 4)
	b := randomMatrix(12, 5, 4)
	got := NewMatrix(6, 5)
	MulABt(got, a, b)
	if !got.Equal(naiveMulAB(a, b.T()), 1e-10) {
		t.Fatal("MulABt mismatch")
	}
}

func TestGramMatchesAtA(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMatrix(seed, 20, 5)
		got := NewMatrix(5, 5)
		Gram(got, a)
		want := NewMatrix(5, 5)
		MulAtB(want, a, a)
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGramSymmetric(t *testing.T) {
	a := randomMatrix(77, 31, 7)
	g := NewMatrix(7, 7)
	GramParallel(g, a, 3)
	if !g.Equal(g.T(), 0) {
		t.Fatal("Gram not exactly symmetric")
	}
}

func TestGramParallelDeterministic(t *testing.T) {
	a := randomMatrix(8, 500, 4)
	first := NewMatrix(4, 4)
	GramParallel(first, a, 4)
	for trial := 0; trial < 5; trial++ {
		g := NewMatrix(4, 4)
		GramParallel(g, a, 4)
		if !first.Equal(g, 0) {
			t.Fatal("GramParallel not deterministic")
		}
	}
}

func TestOuterProduct(t *testing.T) {
	out := NewMatrix(2, 3)
	OuterProduct(out, []float64{2, 3}, []float64{1, 10, 100})
	want := FromRows([][]float64{{2, 20, 200}, {3, 30, 300}})
	if !out.Equal(want, 0) {
		t.Fatalf("OuterProduct = %v", out)
	}
}

func TestMulVecAndMulVecT(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	x := []float64{1, -1}
	got := make([]float64, 3)
	MulVec(got, a, x)
	want := []float64{-1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec[%d] = %v", i, got[i])
		}
	}
	y := []float64{1, 0, 2}
	gotT := make([]float64, 2)
	MulVecT(gotT, a, y)
	if gotT[0] != 11 || gotT[1] != 14 {
		t.Fatalf("MulVecT = %v", gotT)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { MulAB(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2)) },
		func() { MulAtB(NewMatrix(2, 2), NewMatrix(3, 2), NewMatrix(4, 2)) },
		func() { MulABt(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 4)) },
		func() { Gram(NewMatrix(3, 3), NewMatrix(5, 2)) },
		func() { MulVec(make([]float64, 2), NewMatrix(3, 2), make([]float64, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkGramParallel times C = AᵀA at K = 16 over the nips word mode
// (14 000 rows) and the flickr image mode (424 000 rows) at one and two
// workers: ns per row.
func BenchmarkGramParallel(b *testing.B) {
	const k = 16
	for _, rows := range []int{14000, 424000} {
		a := randomMatrix(1, rows, k)
		c := NewMatrix(k, k)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/W=%d", rows, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GramParallel(c, a, w)
				}
				benchSink = c.Data[1]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		}
	}
}
