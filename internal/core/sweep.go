package core

import (
	"fmt"
	"time"

	"spstream/internal/admm"
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
// block order, so nothing here depends on the worker count.
const (
	sweepBlock = 256
	sweepSub   = 64
)

// coreArgs names a row sweep's operands and carries them — like stageRHS's
// and the z-row transform's — through the worker pool without a closure
// (d.pargs, cleared after each call).
type coreArgs struct {
	a    *dense.Matrix // the rows: written under chol or inv, always reduced over
	m    *dense.Matrix // the mode's raw MTTKRP (chol, psi)
	prev *dense.Matrix // A_{t−1}: historical term, H, norms; nil drops all three
	q    *dense.Matrix // Q⁽ⁿ⁾ (chol); the z-row transform's T
	s    []float64     // sₜ (chol)
	// chol set: a[r] = (m[r]∘s + prev[r]·q)·Φ⁻¹ before anything is reduced;
	// nil when the rows are already final (ADMM wrote them).
	chol       *dense.Cholesky
	inv        []float64       // set: a[r] ← a[r]∘inv first (Normalize)
	skip       []bool          // set: marked rows stay out of C; the z transform's nz rows
	grams, psi bool            // reduce C (and H, given prev); reduce ψ
	con        admm.Constraint // z transform: projects the transformed rows
	part       []float64       // block partials; the z transform's row per worker
}

// rowSweep runs sw over every row of sw.a on the pool and adds up the
// block partials: C into c (nil: not wanted) and, given sw.prev, H into h
// — both compact K×K — ψ into d.fitPsi (sw.psi), and ‖A − A_{t−1}‖² and
// ‖A‖² as the results (0 without sw.prev). Allocation-free once the
// partial buffer has grown.
func (d *Decomposer) rowSweep(sw coreArgs, c, h *dense.Matrix) (diff2, norm2 float64) {
	k, kk := d.k, d.k*d.k
	stride := 2*kk + k + 2
	nb := (sw.a.Rows + sweepBlock - 1) / sweepBlock
	if cap(d.sweepPart) < (nb+1)*stride {
		d.sweepPart = make([]float64, (nb+1)*stride)
	}
	sw.part, sw.grams = d.sweepPart[:nb*stride], c != nil
	d.pargs = sw
	d.pool.Do(nb, d.opt.Workers, &d.pargs, rowSweepBody)
	d.pargs = coreArgs{}
	total := d.sweepPart[nb*stride : (nb+1)*stride]
	clear(total)
	for p := sw.part; len(p) > 0; p = p[stride:] {
		for i := range total {
			total[i] += p[i]
		}
	}
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

// updateRows is mode n's row update under both slice bodies: a ← Ψ·Φ⁻¹
// for Ψ = m·diag(sₜ) + prev·q, and the reductions over the new rows — C
// into c[n], H into h[n], on the last mode ψ into fitPsi, the norms
// returned. Unconstrained, the solve is the sweep's own; under a
// constraint Ψ is staged into psi for BF-ADMM (phi is its Φ) and the
// sweep only reduces. Either way a mode's C, H, δ terms and ψ have this
// one implementation.
func (d *Decomposer) updateRows(res *SliceResult, n int, a, m, prev, psi, phi, q *dense.Matrix) (diff2, norm2 float64, err error) {
	t0 := time.Now()
	sw := coreArgs{a: a, m: m, prev: prev, q: q, s: d.s, psi: n == d.n-1}
	if con := d.opt.Constraint; con == nil {
		sw.chol = &d.chol
	} else {
		d.stageRHS(psi, m, prev, q)
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		st, err := d.solver.BlockedFused(a, phi, psi, con)
		res.ADMMIters += st.Iters
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
	d.pargs = coreArgs{a: dst, m: m, prev: prev, q: q, s: d.s}
	d.pool.Do(m.Rows, d.opt.Workers, &d.pargs, stageRHSBody)
	d.pargs = coreArgs{}
}

func stageRHSBody(ctx any, _ int, r parallel.Range) { ctx.(*coreArgs).stageRows(r.Lo, r.Hi) }

// stageRows writes the right-hand side a[r] = m[r]∘sₜ + prev[r]·q for rows
// [lo, hi); a may be m.
func (pa *coreArgs) stageRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		dst := pa.a.Row(i)
		for j, v := range pa.m.Row(i) {
			dst[j] = v * pa.s[j]
		}
		dense.AddMulRow(dst, pa.prev.Row(i), pa.q)
	}
}

func rowSweepBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	a, k := pa.a, pa.a.Cols
	kk := k * k
	stride := 2*kk + k + 2
	var view dense.Matrix
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
			if pa.grams {
				// C and H over the runs of rows the mask leaves in.
				for i := lo; i < hi; {
					if pa.skip != nil && pa.skip[i] {
						i++
						continue
					}
					run := i + 1
					for run < hi && (pa.skip == nil || !pa.skip[run]) {
						run++
					}
					dense.AddAtBRange(c, k, a, a, i, run, true)
					if pa.prev != nil {
						dense.AddAtBRange(h, k, pa.prev, a, i, run, false)
					}
					i = run
				}
			}
			if pa.prev != nil {
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
