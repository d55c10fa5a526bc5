package core

import (
	"fmt"
	"time"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/trace"
)

// The row sweep: the one pass that turns a mode's MTTKRP into its updated
// rows and everything the rest of the iteration reads off them. Rows go
// through it in sweepBlock-row blocks, each in sweepSub-row sub-blocks
// that stay in L1 from the staging of the right-hand side to the last
// reduction, and each block leaves one partial of every reduction:
// C = AᵀA (tiles on and above the diagonal), H = A_{t−1}ᵀA, ψ = Σ M∘A,
// ‖A − A_{t−1}‖² and ‖A‖². The partials are merged serially in ascending
// block order, so nothing here depends on the worker count. The two
// GEMM-shaped kernels run as 2×4 register tiles: stageRows two rows at a
// time, and C and H (K a multiple of 4) over a column-major copy of the
// sub-block (dense.AddAtBCols). Both keep the per-entry operation order of
// the one-row staging and of dense.AddAtBRange, so their bits are those.
const (
	sweepBlock = 256
	sweepSub   = 64
)

// coreArgs names a row sweep's operands and carries them — like stageRHS's
// and the flush's — through the worker pool without a closure (d.pargs,
// cleared after each call).
type coreArgs struct {
	a    *dense.Matrix // the rows: written under chol or inv, always reduced over; the rows a flush writes
	m    *dense.Matrix // the mode's raw MTTKRP (chol, psi)
	prev *dense.Matrix // A_{t−1}: historical term, H, norms; nil drops all three
	q    *dense.Matrix // Q⁽ⁿ⁾ (chol)
	qp   [][4]float64  // q's panels (packPanels; chol)
	s    []float64     // sₜ (chol)
	// chol set: a[r] = (m[r]∘s + prev[r]·q)·Φ⁻¹ before anything is reduced;
	// nil when the rows are already final (ADMM wrote them).
	chol       *dense.Cholesky
	inv        []float64      // set: a[r] ← a[r]∘inv first (Normalize)
	grams, psi bool           // reduce C (and H, given prev); reduce ψ
	norms      bool           // reduce ‖A − A_{t−1}‖² and ‖A‖² (given prev): δ with z = ∅ reads them
	part       []float64      // block partials
	tr         []float64      // per-worker 2·sweepSub·K column-major copies of a and prev (K a multiple of 4)
	idx        []int32        // gather: the rows of ver's mode brought current into a
	ver        *Version       // flush: the version whose mode rows are brought current
	mode       int            // flush: that mode
	rows       []dense.Matrix // flush: one 1×K scratch row per worker
}

// rowSweep runs sw over every row of sw.a on the pool and adds up the
// block partials: C into c (nil: not wanted) and, given sw.prev, H into h
// — both compact K×K — ψ into d.fitPsi (sw.psi), and ‖A − A_{t−1}‖² and
// ‖A‖² as the results (0 without sw.norms). Allocation-free once the
// partial buffer has grown.
func (d *Decomposer) rowSweep(sw coreArgs, c, h *dense.Matrix) (diff2, norm2 float64) {
	k, kk := d.k, d.k*d.k
	stride := 2*kk + k + 2
	nb := (sw.a.Rows + sweepBlock - 1) / sweepBlock
	if cap(d.sweepPart) < (nb+1)*stride {
		d.sweepPart = make([]float64, (nb+1)*stride)
	}
	sw.part, sw.grams = d.sweepPart[:nb*stride], c != nil
	if sw.chol != nil {
		d.qPanels = packPanels(d.qPanels, sw.q)
		sw.qp = d.qPanels
	}
	if sw.grams && k%4 == 0 {
		if n := d.opt.Workers * 2 * sweepSub * k; cap(d.sweepTr) < n {
			d.sweepTr = make([]float64, n)
		}
		sw.tr = d.sweepTr
	}
	d.pargs = sw
	d.pool.Do(nb, d.opt.Workers, &d.pargs, rowSweepBody)
	d.pargs = coreArgs{}
	total := d.sweepPart[nb*stride : (nb+1)*stride]
	parallel.SumBlocks(total, sw.part)
	if c != nil {
		for x := 0; x < k; x++ {
			for y := x; y < k; y++ {
				c.Data[x*k+y], c.Data[y*k+x] = total[x*k+y], total[x*k+y]
			}
		}
	}
	if h != nil {
		copy(h.Data, total[kk:2*kk])
	}
	if sw.psi {
		copy(d.fitPsi, total[2*kk:])
	}
	return total[stride-2], total[stride-1]
}

// updateRows is the slice body's row update of mode n, over the rows run
// iterates (all of them, or A_nz): a ← Ψ·Φ⁻¹ for Ψ = m·diag(sₜ) +
// A_{t−1}·q, and the reductions over the new rows — C into c[n], H into
// h[n], on the last mode ψ into fitPsi, and with z = ∅ the norms
// returned (a z set's δ is the trace form's). Unconstrained, the solve
// is the sweep's own; under a constraint Ψ is staged into the mode's Ψ
// workspace for BF-ADMM (phi is its Φ) and the sweep only reduces.
// Either way a mode's C, H, δ terms and ψ have this one implementation.
func (d *Decomposer) updateRows(run *sliceRun, n int, m, phi, q *dense.Matrix) (diff2, norm2 float64, err error) {
	t0 := time.Now()
	a, prev := run.a[n], run.prev[n]
	sw := coreArgs{a: a, m: m, prev: prev, q: q, s: d.s, psi: n == d.n-1, norms: run.rm == nil}
	if con := d.opt.Constraint; con == nil {
		sw.chol = &d.chol
	} else {
		psi := d.sp.psi[n]
		d.stageRHS(psi, m, prev, q)
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		st, err := d.solver.BlockedFused(a, phi, psi, con)
		run.res.ADMMIters += st.Iters
		d.bd.Add(trace.Update, time.Since(t0))
		if err != nil {
			return 0, 0, fmt.Errorf("core: mode %d ADMM: %w", n, err)
		}
		t0 = time.Now()
	}
	diff2, norm2 = d.rowSweep(sw, d.c[n], d.h[n])
	d.addSweepTime(time.Since(t0), sw.chol != nil)
	return diff2, norm2, nil
}

// stageRHS writes ADMM's right-hand side Ψ: dst[r] = m[r]∘sₜ + prev[r]·q
// for every row r of m; dst may be m. Allocation-free via d.pargs.
func (d *Decomposer) stageRHS(dst, m, prev, q *dense.Matrix) {
	d.qPanels = packPanels(d.qPanels, q)
	d.pargs = coreArgs{a: dst, m: m, prev: prev, q: q, qp: d.qPanels, s: d.s}
	d.pool.Do(m.Rows, d.opt.Workers, &d.pargs, stageRHSBody)
	d.pargs = coreArgs{}
}

func stageRHSBody(ctx any, _ int, r parallel.Range) { ctx.(*coreArgs).stageRows(r.Lo, r.Hi) }

// packPanels returns q's full four-column chunks laid out for stageRows in
// dst's storage (grown if short): chunk g's row kk at [g·K + kk], so a
// tile walks one contiguous panel.
func packPanels(dst [][4]float64, q *dense.Matrix) [][4]float64 {
	k := q.Cols
	n := k / 4 * q.Rows
	if cap(dst) < n {
		dst = make([][4]float64, n)
	}
	dst = dst[:n]
	for g := 0; g < k/4; g++ {
		for kk := 0; kk < q.Rows; kk++ {
			dst[g*q.Rows+kk] = [4]float64(q.Row(kk)[4*g:])
		}
	}
	return dst
}

// stageRows writes the right-hand side a[r] = m[r]∘sₜ + prev[r]·q for rows
// [lo, hi); a may be m. Rows go two at a time through 2×4 register tiles
// over q's panels (pa.qp, packPanels), so each four-wide chunk of a row
// of q is loaded once for both. Every entry is still float64(m·s)
// followed by the ascending-kk adds of float64(prev[kk]·q[kk][j]) with
// zero prev[kk] skipped — AddMulRow's order — so its bits are the
// one-row form's, which an odd last row takes.
func (pa *coreArgs) stageRows(lo, hi int) {
	s, qd, qs := pa.s, pa.q.Data, pa.q.Stride
	k := len(s)
	i := lo
	for ; i+2 <= hi; i += 2 {
		m0, m1 := pa.m.Row(i), pa.m.Row(i+1)
		d0, d1 := pa.a.Row(i), pa.a.Row(i+1)
		p0, p1 := pa.prev.Row(i), pa.prev.Row(i+1)
		p1 = p1[:len(p0)]
		j := 0
		for ; j+4 <= k; j += 4 {
			panel := pa.qp[j/4*k : (j/4+1)*k]
			panel = panel[:len(p0)]
			sj, x0, x1 := (*[4]float64)(s[j:]), (*[4]float64)(m0[j:]), (*[4]float64)(m1[j:])
			c00, c01, c02, c03 := float64(x0[0]*sj[0]), float64(x0[1]*sj[1]), float64(x0[2]*sj[2]), float64(x0[3]*sj[3])
			c10, c11, c12, c13 := float64(x1[0]*sj[0]), float64(x1[1]*sj[1]), float64(x1[2]*sj[2]), float64(x1[3]*sj[3])
			for kk, u0 := range p0 {
				rq := &panel[kk]
				if u0 != 0 {
					c00 += float64(u0 * rq[0])
					c01 += float64(u0 * rq[1])
					c02 += float64(u0 * rq[2])
					c03 += float64(u0 * rq[3])
				}
				if u1 := p1[kk]; u1 != 0 {
					c10 += float64(u1 * rq[0])
					c11 += float64(u1 * rq[1])
					c12 += float64(u1 * rq[2])
					c13 += float64(u1 * rq[3])
				}
			}
			y0, y1 := (*[4]float64)(d0[j:]), (*[4]float64)(d1[j:])
			y0[0], y0[1], y0[2], y0[3] = c00, c01, c02, c03
			y1[0], y1[1], y1[2], y1[3] = c10, c11, c12, c13
		}
		for ; j < k; j++ {
			c0, c1 := float64(m0[j]*s[j]), float64(m1[j]*s[j])
			for kk, u0 := range p0 {
				u1, v := p1[kk], qd[kk*qs+j]
				if u0 != 0 {
					c0 += float64(u0 * v)
				}
				if u1 != 0 {
					c1 += float64(u1 * v)
				}
			}
			d0[j], d1[j] = c0, c1
		}
	}
	if i < hi {
		dst := pa.a.Row(i)
		for j, v := range pa.m.Row(i) {
			dst[j] = v * s[j]
		}
		dense.AddMulRow(dst, pa.prev.Row(i), pa.q)
	}
}

func rowSweepBody(ctx any, w int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	a, k := pa.a, pa.a.Cols
	kk := k * k
	stride := 2*kk + k + 2
	var view dense.Matrix
	var at, pt []float64
	if pa.tr != nil {
		tr := pa.tr[w*2*sweepSub*k : (w+1)*2*sweepSub*k]
		at, pt = tr[:sweepSub*k], tr[sweepSub*k:]
	}
	for b := r.Lo; b < r.Hi; b++ {
		part := pa.part[b*stride : (b+1)*stride]
		clear(part)
		c, h, psi := part[:kk], part[kk:2*kk], part[2*kk:2*kk+k]
		var diff2, norm2 float64
		end := min((b+1)*sweepBlock, a.Rows)
		for lo := b * sweepBlock; lo < end; lo += sweepSub {
			hi := min(lo+sweepSub, end)
			view.SetRowView(a, lo, hi)
			if pa.chol != nil {
				pa.stageRows(lo, hi)
				pa.chol.SolveRows(&view)
			}
			if pa.inv != nil {
				dense.ScaleColumns(&view, &view, pa.inv)
			}
			switch {
			case pa.grams && pa.tr != nil:
				n := hi - lo
				dense.TransposeRows(at, a, lo, hi)
				dense.AddAtBCols(c, k, at, at, n, true)
				if pa.prev != nil {
					dense.TransposeRows(pt, pa.prev, lo, hi)
					dense.AddAtBCols(h, k, pt, at, n, false)
				}
			case pa.grams:
				dense.AddAtBRange(c, k, a, a, lo, hi, true)
				if pa.prev != nil {
					dense.AddAtBRange(h, k, pa.prev, a, lo, hi, false)
				}
			}
			if pa.norms {
				// A row at a time, so consecutive rows' sums overlap.
				for i := lo; i < hi; i++ {
					rp := pa.prev.Row(i)
					var dd, nn float64
					for j, v := range a.Row(i) {
						e := v - rp[j]
						dd += e * e
						nn += v * v
					}
					diff2 += dd
					norm2 += nn
				}
			}
			if pa.psi {
				for i := lo; i < hi; i++ {
					ra := a.Row(i)
					for j, v := range pa.m.Row(i) {
						psi[j] += float64(v * ra[j])
					}
				}
			}
		}
		part[stride-2], part[stride-1] = diff2, norm2
	}
}

// addSweepTime books the wall time of one reducing sweep to the phases of
// the separate passes it stands for, in proportion to their flops per row
// — staging K + 2K² and H 2K² to Historical, the solve 2K² to Update, C
// K(K+1) to Gram, the norms and ψ 5K to Error (which takes the rounding,
// so the four add up to dt). solve says the stage+solve half ran.
func (d *Decomposer) addSweepTime(dt time.Duration, solve bool) {
	k := float64(d.k)
	hist, update, gram, norms := 2*k*k, 0.0, k*(k+1), 5*k
	if solve {
		hist, update = hist+k+2*k*k, 2*k*k
	}
	per := float64(dt) / (hist + update + gram + norms)
	th, tu, tg := time.Duration(hist*per), time.Duration(update*per), time.Duration(gram*per)
	d.bd.Add(trace.Historical, th)
	d.bd.Add(trace.Update, tu)
	d.bd.Add(trace.Gram, tg)
	d.bd.Add(trace.Error, dt-th-tu-tg)
}
