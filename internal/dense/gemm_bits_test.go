package dense

import (
	"fmt"
	"math"
	"testing"
)

// The register-form kernels (mulRow, AddAtBRange) replaced loops that kept
// their accumulators in the destination. The references below are those
// loops, kept as they were; the kernels must match them bit for bit.

// refMulAB is the old mulABRange (add = false) and core.addMulABBody
// (add = true).
func refMulAB(dst, a, b *Matrix, add bool) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		ra := a.Row(i)
		rd := dst.Row(i)
		if !add {
			for j := range rd {
				rd[j] = 0
			}
		}
		for kk, av := range ra {
			if av == 0 {
				continue
			}
			rb := b.Data[kk*b.Stride : kk*b.Stride+n]
			for j, bv := range rb {
				rd[j] += av * bv
			}
		}
	}
}

// refMulAtBRange is the old mulAtBRange / mulAtBBody loop into a flat
// accumulator.
func refMulAtBRange(acc []float64, stride int, a, b *Matrix, lo, hi int) {
	kb := b.Cols
	for i := lo; i < hi; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for p, av := range ra {
			if av == 0 {
				continue
			}
			rd := acc[p*stride : p*stride+kb]
			for q, bv := range rb {
				rd[q] += av * bv
			}
		}
	}
}

// refGramRange is the old gramRange: upper triangle only.
func refGramRange(acc []float64, stride int, a *Matrix, lo, hi int) {
	k := a.Cols
	for i := lo; i < hi; i++ {
		row := a.Row(i)
		for x, vx := range row {
			if vx == 0 {
				continue
			}
			off := x * stride
			for y := x; y < k; y++ {
				acc[off+y] += vx * row[y]
			}
		}
	}
}

// refReduce runs body the block-keyed way: each 256-row block into its
// own zeroed partial, the partials added to the zeroed dst in block
// order — whatever the worker count.
func refReduce(dst []float64, n int, body func(acc []float64, lo, hi int)) {
	clear(dst)
	for lo := 0; lo < n; lo += 256 {
		acc := make([]float64, len(dst))
		body(acc, lo, min(lo+256, n))
		for i, v := range acc {
			dst[i] += v
		}
	}
}

// hostileMatrix is a rows×cols view with Stride = cols+3 and poisoned
// padding whose entries include exact zeros (the skip), −0, and — with
// nonFinite set — ±Inf and NaN.
func hostileMatrix(seed int64, rows, cols int, nonFinite bool) *Matrix {
	src := randomMatrix(seed, rows, cols)
	stride := cols + 3
	m := &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: make([]float64, rows*stride)}
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	for i := 0; i < rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
	for i := 0; i < rows; i++ {
		m.Row(i)[(i*7)%cols] = 0
		if i%5 == 0 {
			m.Row(i)[(i*3)%cols] = math.Copysign(0, -1)
		}
	}
	if nonFinite && rows > 0 {
		m.Row(0)[0] = math.Inf(1)
		m.Row(rows / 2)[cols/2] = math.Inf(-1)
		m.Row(rows - 1)[cols-1] = math.NaN()
	}
	return m
}

// requireSameBitsOrNaN is requireSameBits with any two NaNs equal: which
// operand's payload an addition propagates is the compiler's choice of
// operand order, not a property of the kernel.
func requireSameBitsOrNaN(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) && !(math.IsNaN(g[j]) && math.IsNaN(w[j])) {
				t.Fatalf("%s: element (%d,%d) = %v (%#x) want %v (%#x)",
					what, i, j, g[j], math.Float64bits(g[j]), w[j], math.Float64bits(w[j]))
			}
		}
	}
}

var (
	bitsRows    = []int{0, 1, 63, 64, 65, 409, 600}
	bitsRanks   = []int{1, 3, 4, 5, 16, 17}
	bitsWorkers = []int{1, 2, 7}
)

// TestMulABBitIdentical pins MulAB, MulABParallel and AddMulRow to the
// in-memory loops.
func TestMulABBitIdentical(t *testing.T) {
	for _, nonFinite := range []bool{false, true} {
		for _, rows := range bitsRows {
			for _, k := range bitsRanks {
				name := fmt.Sprintf("rows=%d K=%d nonFinite=%v", rows, k, nonFinite)
				a := hostileMatrix(1, rows, k, false)
				b := hostileMatrix(2, k, k, nonFinite)
				want := hostileMatrix(3, rows, k, false)
				refMulAB(want, a, b, false)

				got := hostileMatrix(3, rows, k, false)
				MulAB(got, a, b)
				requireSameBitsOrNaN(t, name+" MulAB", got, want)
				for _, w := range bitsWorkers {
					got.Fill(7)
					MulABParallel(got, a, b, w)
					requireSameBitsOrNaN(t, fmt.Sprintf("%s MulABParallel W=%d", name, w), got, want)
				}

				want = hostileMatrix(4, rows, k, false)
				refMulAB(want, a, b, true)
				got = hostileMatrix(4, rows, k, false)
				for i := 0; i < rows; i++ {
					AddMulRow(got.Row(i), a.Row(i), b)
				}
				requireSameBitsOrNaN(t, name+" AddMulRow", got, want)
			}
		}
	}
}

// TestMulAtBGramBitIdentical pins MulAtB to the in-memory loop, and
// MulAtBParallel, Gram and GramParallel to it under the block-keyed
// reduction at every worker count, for compact and strided destinations.
func TestMulAtBGramBitIdentical(t *testing.T) {
	for _, nonFinite := range []bool{false, true} {
		for _, rows := range bitsRows {
			for _, k := range bitsRanks {
				a := hostileMatrix(5, rows, k, nonFinite)
				b := hostileMatrix(6, rows, k+1, nonFinite)
				for _, w := range bitsWorkers {
					name := fmt.Sprintf("rows=%d K=%d W=%d nonFinite=%v", rows, k, w, nonFinite)

					want := NewMatrix(k, k+1)
					refReduce(want.Data, rows, func(acc []float64, lo, hi int) {
						refMulAtBRange(acc, k+1, a, b, lo, hi)
					})
					got := NewMatrix(k, k+1)
					got.Fill(7)
					MulAtBParallel(got, a, b, w)
					requireSameBitsOrNaN(t, name+" MulAtBParallel", got, want)

					want = NewMatrix(k, k)
					refReduce(want.Data, rows, func(acc []float64, lo, hi int) {
						refGramRange(acc, k, a, lo, hi)
					})
					for x := 0; x < k; x++ {
						for y := x + 1; y < k; y++ {
							want.Set(y, x, want.At(x, y))
						}
					}
					got = NewMatrix(k, k)
					got.Fill(7)
					GramParallel(got, a, w)
					requireSameBitsOrNaN(t, name+" GramParallel", got, want)
				}

				// Serial entry points, into a strided destination.
				name := fmt.Sprintf("rows=%d K=%d nonFinite=%v", rows, k, nonFinite)
				want := hostileMatrix(8, k, k+1, false)
				want.Zero()
				refMulAtBRange(want.Data, want.Stride, a, b, 0, rows)
				got := hostileMatrix(8, k, k+1, false)
				MulAtB(got, a, b)
				requireSameBitsOrNaN(t, name+" MulAtB strided", got, want)

				want = hostileMatrix(9, k, k, false)
				compact := NewMatrix(k, k)
				refReduce(compact.Data, rows, func(acc []float64, lo, hi int) {
					refGramRange(acc, k, a, lo, hi)
				})
				for x := 0; x < k; x++ {
					copy(want.Row(x), compact.Row(x))
				}
				for x := 0; x < k; x++ {
					for y := x + 1; y < k; y++ {
						want.Set(y, x, want.At(x, y))
					}
				}
				got = hostileMatrix(9, k, k, false)
				Gram(got, a)
				requireSameBitsOrNaN(t, name+" Gram strided", got, want)
			}
		}
	}
	// At K = 128 a group holds two blocks (one for K×(K+1)), so 1 300 rows
	// merge over several groups, each onto the running total.
	const k, rows = 128, 1300
	a, b := hostileMatrix(13, rows, k, true), hostileMatrix(14, rows, k+1, true)
	wantH, wantC := NewMatrix(k, k+1), NewMatrix(k, k)
	refReduce(wantH.Data, rows, func(acc []float64, lo, hi int) { refMulAtBRange(acc, k+1, a, b, lo, hi) })
	refReduce(wantC.Data, rows, func(acc []float64, lo, hi int) { refGramRange(acc, k, a, lo, hi) })
	for x := 0; x < k; x++ {
		for y := x + 1; y < k; y++ {
			wantC.Set(y, x, wantC.At(x, y))
		}
	}
	for _, w := range bitsWorkers {
		gotH, gotC := NewMatrix(k, k+1), NewMatrix(k, k)
		MulAtBParallel(gotH, a, b, w)
		GramParallel(gotC, a, w)
		requireSameBitsOrNaN(t, fmt.Sprintf("grouped W=%d MulAtBParallel", w), gotH, wantH)
		requireSameBitsOrNaN(t, fmt.Sprintf("grouped W=%d GramParallel", w), gotC, wantC)
	}
}

// TestAddRangesMatchWholeProduct: AddAtBRange accumulates, so row
// ranges cut anywhere and added in ascending order give MulAtB's bits —
// every entry is still the ascending-row sum — and, cut anywhere within
// each 256-row block, Gram's.
func TestAddRangesMatchWholeProduct(t *testing.T) {
	for _, rows := range []int{1, 63, 64, 65, 300} {
		for _, k := range bitsRanks {
			a := hostileMatrix(11, rows, k, false)
			b := hostileMatrix(12, rows, k+1, false)
			wantH, wantC := NewMatrix(k, k+1), NewMatrix(k, k)
			MulAtB(wantH, a, b)
			Gram(wantC, a)
			for _, cut := range []int{1, 7, 64, 100} {
				gotH, gotC := NewMatrix(k, k+1), NewMatrix(k, k)
				for lo := 0; lo < rows; lo += cut {
					AddAtBRange(gotH.Data, k+1, a, b, lo, min(lo+cut, rows), false)
				}
				// Gram's ascending sums restart at every 256-row block.
				refReduce(gotC.Data, rows, func(acc []float64, lo, hi int) {
					for ; lo < hi; lo += cut {
						AddAtBRange(acc, k, a, a, lo, min(lo+cut, hi), true)
					}
				})
				for x := 0; x < k; x++ {
					for y := x + 1; y < k; y++ {
						gotC.Set(y, x, gotC.At(x, y))
					}
				}
				name := fmt.Sprintf("rows=%d K=%d cut=%d", rows, k, cut)
				requireSameBitsOrNaN(t, name+" AᵀB", gotH, wantH)
				requireSameBitsOrNaN(t, name+" Gram", gotC, wantC)
			}
		}
	}
}
