package mttkrp

import (
	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// panelCols is the width of the register panel: eight accumulators plus
// the value and the two gathered operands fit amd64's fifteen usable XMM
// registers, and an eight-float panel of a factor row is one 64-byte
// cache line — a K = 16 row is two lines, one per panel.
const panelCols = 8

// timeChunk is how many nonzeros timeRange carries through all panels
// before moving on: their index and value stream (20 bytes each) and the
// factor rows they gather then stay cache-resident from the first panel
// pass to the last. Spilling the accumulators to acc between chunks does
// not change a bit — each column's additions keep their order.
const timeChunk = 1024

// The three-way kernels below keep a panel of the destination row in
// locals for a whole run of nonzeros: load once, add one product per
// nonzero per column, store once. The only memory traffic inside the
// run is the index/value stream and the gathered factor rows. K is
// covered by ⌊K/8⌋ panels and a one-column-at-a-time tail.
//
// Every column still sees exactly the scratch-row kernel's operations in
// its order — the product (v·a[j])·b[j] rounded to float64, then added
// to the running sum in entry order — so results are bit-identical to
// the generic body (and to Sequential). The explicit float64 conversion
// is what forbids fusing the last multiply into the add on platforms
// with FMA.

// rowRun adds the contributions of one output row's nonzeros to that row
// of the MTTKRP: Plan hands it the zeroed row, StreamKernel the row as
// earlier blocks left it. Three-way slices take the register panel;
// other orders keep the generic scratch-row body over buf.
type rowRun struct {
	x       *sptensor.Tensor
	factors []*dense.Matrix
	mode    int
	buf     []float64

	// Three-way operands: the two non-output modes in ascending order,
	// matching rowProduct's val·a·b.
	a, b   *dense.Matrix
	ia, ib []int32
}

func newRowRun(x *sptensor.Tensor, factors []*dense.Matrix, mode int, buf []float64) rowRun {
	r := rowRun{x: x, factors: factors, mode: mode, buf: buf}
	if len(factors) == 3 {
		ma, mb := 0, 1
		switch mode {
		case 0:
			ma, mb = 1, 2
		case 1:
			mb = 2
		}
		r.a, r.b = factors[ma], factors[mb]
		r.ia, r.ib = x.Inds[ma], x.Inds[mb]
	}
	return r
}

// add accumulates nonzeros perm[0], perm[1], … of the slice into dst, in
// that order.
func (r *rowRun) add(dst []float64, perm []int32) {
	if r.a == nil {
		for _, e := range perm {
			rowProduct(r.buf, r.x, r.factors, r.mode, int(e), r.x.Vals[e])
			for j, v := range r.buf {
				dst[j] += v
			}
		}
		return
	}
	vals, ia, ib := r.x.Vals, r.ia, r.ib
	ad, as := r.a.Data, r.a.Stride
	bd, bs := r.b.Data, r.b.Stride
	k := len(dst)
	j := 0
	for ; j+panelCols <= k; j += panelCols {
		d := (*[panelCols]float64)(dst[j:])
		c0, c1, c2, c3, c4, c5, c6, c7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for _, e := range perm {
			v := vals[e]
			ra := (*[panelCols]float64)(ad[int(ia[e])*as+j:])
			rb := (*[panelCols]float64)(bd[int(ib[e])*bs+j:])
			c0 += float64(v * ra[0] * rb[0])
			c1 += float64(v * ra[1] * rb[1])
			c2 += float64(v * ra[2] * rb[2])
			c3 += float64(v * ra[3] * rb[3])
			c4 += float64(v * ra[4] * rb[4])
			c5 += float64(v * ra[5] * rb[5])
			c6 += float64(v * ra[6] * rb[6])
			c7 += float64(v * ra[7] * rb[7])
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < k; j++ {
		c := dst[j]
		for _, e := range perm {
			c += float64(vals[e] * ad[int(ia[e])*as+j] * bd[int(ib[e])*bs+j])
		}
		dst[j] = c
	}
}

// timeRange adds Σ_e val_e · ∏_v factors[v][i_v][j] over nonzeros
// [lo, hi) of x into acc — the streaming-mode row, shared by
// Computer.TimeMode and StreamKernel.TimeMode. Three factors take the
// three-row register panel, ((v·r0)·r1)·r2 per column; other orders
// keep the generic scratch-row body over buf.
func timeRange(acc, buf []float64, x *sptensor.Tensor, factors []*dense.Matrix, lo, hi int) {
	if len(factors) != 3 {
		for e := lo; e < hi; e++ {
			timeModeRow(buf, x, factors, e)
			for j, v := range buf {
				acc[j] += v
			}
		}
		return
	}
	d0, s0 := factors[0].Data, factors[0].Stride
	d1, s1 := factors[1].Data, factors[1].Stride
	d2, s2 := factors[2].Data, factors[2].Stride
	k := len(acc)
	for ; lo < hi; lo += timeChunk {
		end := min(lo+timeChunk, hi)
		vals := x.Vals[lo:end]
		i0, i1, i2 := x.Inds[0][lo:end], x.Inds[1][lo:end], x.Inds[2][lo:end]
		j := 0
		for ; j+panelCols <= k; j += panelCols {
			d := (*[panelCols]float64)(acc[j:])
			c0, c1, c2, c3, c4, c5, c6, c7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
			for e, v := range vals {
				r0 := (*[panelCols]float64)(d0[int(i0[e])*s0+j:])
				r1 := (*[panelCols]float64)(d1[int(i1[e])*s1+j:])
				r2 := (*[panelCols]float64)(d2[int(i2[e])*s2+j:])
				c0 += float64(v * r0[0] * r1[0] * r2[0])
				c1 += float64(v * r0[1] * r1[1] * r2[1])
				c2 += float64(v * r0[2] * r1[2] * r2[2])
				c3 += float64(v * r0[3] * r1[3] * r2[3])
				c4 += float64(v * r0[4] * r1[4] * r2[4])
				c5 += float64(v * r0[5] * r1[5] * r2[5])
				c6 += float64(v * r0[6] * r1[6] * r2[6])
				c7 += float64(v * r0[7] * r1[7] * r2[7])
			}
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0, c1, c2, c3, c4, c5, c6, c7
		}
		for ; j < k; j++ {
			c := acc[j]
			for e, v := range vals {
				c += float64(v * d0[int(i0[e])*s0+j] * d1[int(i1[e])*s1+j] * d2[int(i2[e])*s2+j])
			}
			acc[j] = c
		}
	}
}
