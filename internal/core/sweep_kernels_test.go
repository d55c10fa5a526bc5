package core

import (
	"fmt"
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/synth"
)

// The sweep's two GEMM-shaped kernels — the two-row staging and the Grams
// over a column-major sub-block — replaced the one-row staging below and
// dense.AddAtBRange without moving a bit. These tests hold them to those
// references.

// refStageRows is the one-row staging the two-row tiles replaced, loop for
// loop: a[r] = m[r]∘sₜ, then AddMulRow's ascending-kk adds of prev[r]·q.
func refStageRows(pa *coreArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst := pa.a.Row(i)
		for j, v := range pa.m.Row(i) {
			dst[j] = v * pa.s[j]
		}
		dense.AddMulRow(dst, pa.prev.Row(i), pa.q)
	}
}

// kernelCase is a sweepCase salted with the values a reordered add or a
// dropped zero skip would show: exact zeros and −0.0 in A_{t−1} and A, an
// Inf in Q whose partner column of A_{t−1} is all (signed) zeros, and an
// Inf in A's last column at a row whose other entries, in A and in
// A_{t−1}, are mostly zeros.
func kernelCase(seed uint64, rows, k int) sweepCase {
	c := newSweepCase(seed, rows, k)
	r := synth.NewRNG(seed ^ 0x5eed)
	salt := func(m *dense.Matrix) {
		for i := range m.Data {
			switch r.Intn(8) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	salt(c.prev)
	salt(c.a0)
	kk := r.Intn(k)
	c.q.Data[kk*k+r.Intn(k)] = math.Inf(1)
	for i := 0; i < rows; i++ {
		c.prev.Data[i*k+kk] = math.Copysign(0, float64(i%2*2-1))
	}
	i0 := r.Intn(rows)
	for p := 0; p < k-1; p++ {
		if p%3 != 2 {
			c.a0.Data[i0*k+p], c.prev.Data[i0*k+p] = 0, math.Copysign(0, -1)
		}
	}
	c.a0.Data[i0*k+k-1] = math.Inf(-1)
	return c
}

// sameBits fails unless a and b hold the same float64 bits.
func sameBits(t *testing.T, label string, a, b []float64) {
	t.Helper()
	for i := range b {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d differs: %g vs %g", label, i, a[i], b[i])
		}
	}
}

// refSweepRowsGrams is rowSweep's rows, C and H over the reference kernels:
// refStageRows and the solve per sub-block, and AddAtBRange into one
// partial per block, merged in block order and C mirrored.
func refSweepRowsGrams(d *Decomposer, sw coreArgs, c, h *dense.Matrix) {
	a, k := sw.a, d.k
	kk := k * k
	nb := (a.Rows + sweepBlock - 1) / sweepBlock
	parts, total := make([]float64, nb*2*kk), make([]float64, 2*kk)
	var view dense.Matrix
	for b := 0; b < nb; b++ {
		part := parts[b*2*kk : (b+1)*2*kk]
		for lo := b * sweepBlock; lo < min((b+1)*sweepBlock, a.Rows); lo += sweepSub {
			hi := min(lo+sweepSub, (b+1)*sweepBlock, a.Rows)
			view.SetRowView(a, lo, hi)
			if sw.chol != nil {
				refStageRows(&sw, lo, hi)
				sw.chol.SolveRows(&view)
			}
			dense.AddAtBRange(part[:kk], k, a, a, lo, hi, true)
			dense.AddAtBRange(part[kk:], k, sw.prev, a, lo, hi, false)
		}
	}
	parallel.SumBlocks(total, parts)
	for x := 0; x < k; x++ {
		for y := x; y < k; y++ {
			c.Data[x*k+y], c.Data[y*k+x] = total[x*k+y], total[x*k+y]
		}
	}
	copy(h.Data, total[kk:])
}

// TestSweepKernelsMatchReference holds the sweep's kernels to the ones
// they replaced, bit for bit. The staging, on sub-blocks of 1–65 rows
// (odd and even counts, with a = m as stageRHS allows), against
// refStageRows; the column-major Grams, on the same counts with the
// accumulator pre-filled so a tile written outside AddAtBRange's set shows,
// against AddAtBRange for C (upper) and H; and whole sweeps of 255–257
// rows at Workers 1 and 3, solving and reduce-only, against the sweep over
// the reference kernels. K runs over multiples of 4 (the tiled Grams) and
// others (AddAtBRange stays); the inputs carry zeros, −0.0 and shielded
// Infs (kernelCase).
func TestSweepKernelsMatchReference(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 8, 12, 15, 16, 17, 20, 32} {
		for _, n := range []int{1, 2, 3, 63, 64, 65} {
			c := kernelCase(uint64(1000*k+n), n, k)
			name := fmt.Sprintf("K=%d n=%d", k, n)
			for _, alias := range []bool{false, true} {
				got, want := c.a0.Clone(), c.a0.Clone()
				gm, wm := c.m, c.m
				if alias {
					got, want = c.m.Clone(), c.m.Clone()
					gm, wm = got, want
				}
				(&coreArgs{a: got, m: gm, prev: c.prev, q: c.q, qp: packPanels(nil, c.q), s: c.s}).stageRows(0, n)
				refStageRows(&coreArgs{a: want, m: wm, prev: c.prev, q: c.q, s: c.s}, 0, n)
				sameBits(t, fmt.Sprintf("%s alias=%v staged rows", name, alias), got.Data, want.Data)
			}
			if k%4 != 0 {
				continue
			}
			at, pt := make([]float64, k*n), make([]float64, k*n)
			dense.TransposeRows(at, c.a0, 0, n)
			dense.TransposeRows(pt, c.prev, 0, n)
			fill := newSweepCase(uint64(k+n), k, k).m.Data
			for _, upper := range []bool{true, false} {
				got, want := append([]float64(nil), fill...), append([]float64(nil), fill...)
				bt, b := pt, c.prev
				if upper {
					bt, b = at, c.a0
				}
				dense.AddAtBCols(got, k, bt, at, n, upper)
				dense.AddAtBRange(want, k, b, c.a0, 0, n, upper)
				sameBits(t, fmt.Sprintf("%s upper=%v Gram", name, upper), got, want)
			}
		}
		for _, rows := range []int{sweepBlock - 1, sweepBlock, sweepBlock + 1} {
			c := kernelCase(uint64(7000*k+rows), rows, k)
			for shape := range 2 { // solve, reduce
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s K=%d rows=%d workers=%d", sweepShapes[shape].name, k, rows, workers)
					got := runSweep(t, c, workers, shape)
					d := sweepDecomposer(t, c, workers)
					a, wc, wh := c.a0.Clone(), dense.NewMatrix(k, k), dense.NewMatrix(k, k)
					refSweepRowsGrams(d, sweepShapes[shape].args(d, c, a), wc, wh)
					sameBits(t, name+" A", got.a.Data, a.Data)
					sameBits(t, name+" C", got.c.Data, wc.Data)
					sameBits(t, name+" H", got.h.Data, wh.Data)
				}
			}
		}
	}
}

// BenchmarkSweepKernels times the sweep's two GEMM-shaped kernels beside
// the ones they replaced, at K = 16 on the longest nips mode and a flickr
// nz shape, in the sweep's 64-row sub-blocks: the staging one row and two
// rows at a time, and C + H by AddAtBRange and by AddAtBCols over the
// column-major copies (the transposes counted). ns/row.
func BenchmarkSweepKernels(b *testing.B) {
	const k = 16
	for _, rows := range []int{14000, 6800} {
		c := newSweepCase(9, rows, k)
		a, acc := c.a0.Clone(), make([]float64, 2*k*k)
		at, pt := make([]float64, sweepSub*k), make([]float64, sweepSub*k)
		sw := &coreArgs{a: a, m: c.m, prev: c.prev, q: c.q, qp: packPanels(nil, c.q), s: c.s}
		kernels := []struct {
			name string
			run  func(lo, hi int)
		}{
			{"stage/onerow", func(lo, hi int) { refStageRows(sw, lo, hi) }},
			{"stage/tworow", sw.stageRows},
			{"grams/AddAtBRange", func(lo, hi int) {
				dense.AddAtBRange(acc[:k*k], k, a, a, lo, hi, true)
				dense.AddAtBRange(acc[k*k:], k, c.prev, a, lo, hi, false)
			}},
			{"grams/AddAtBCols", func(lo, hi int) {
				dense.TransposeRows(at, a, lo, hi)
				dense.TransposeRows(pt, c.prev, lo, hi)
				dense.AddAtBCols(acc[:k*k], k, at, at, hi-lo, true)
				dense.AddAtBCols(acc[k*k:], k, pt, at, hi-lo, false)
			}},
		}
		for _, kn := range kernels {
			b.Run(fmt.Sprintf("%dx%d/%s", rows, k, kn.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < rows; lo += sweepSub {
						kn.run(lo, min(lo+sweepSub, rows))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		}
	}
}
