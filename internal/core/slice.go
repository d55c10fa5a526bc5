package core

import (
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/trace"
)

// sliceRun holds one slice's state between the begin/iterate/finish
// phases of the slice body — the paper's Algorithm 4 (spCP-stream). Its
// one policy is the z set, chosen in beginSlice: per mode, the factor
// rows the slice's nonzeros do not touch. Only the touched rows A_nz are
// iterated on; the z rows are carried implicitly through the K×K Gram
// C_z (Eq. 11), and after convergence the final iteration's transform
// QΦ⁻¹ (Eq. 6) is logged for them rather than applied (finishZ, the lazy
// z side of Version), so the inner loop costs O(nnz·K + |nz|·K² + K³)
// per mode instead of O(nnz·K + Iₙ·K²) — the source of the 102×
// speedups on skewed tensors — and so does the slice, but for the flush
// of every zLogLen-th. With z = ∅ the body is
// Algorithm 1 (CP-stream): A_nz is A, no transform runs, and δ comes from
// the sweep's direct norms. Splitting the slice loop into phases keeps
// every per-slice artifact out of the Decomposer while letting tests
// drive — and measure — a single steady-state inner iteration.
type sliceRun struct {
	in  sliceData        // the slice
	kin sliceData        // what the kernel reads: in, or its remap into nz-row space
	rm  *mttkrp.Remapped // the remap that names the z set; nil for z = ∅
	// Per mode, a is the iterate — the spare version's A_t, or the
	// gathered A_nz — prev its A_{t−1} — the committed version's, or the
	// gathered A_nz,t−1 — and fac the factor the kernels read: a, except
	// that with z = ∅ a mode reads as prev until the first iteration has
	// written it.
	a, prev, fac []*dense.Matrix
	// next is the version the slice commits: the spare, or the committed
	// one itself when a z set writes in place (finishZ).
	next *Version
	// m0: the psi workspace of mode 0 holds the MTTKRP the warm start
	// computed, which the first iteration's mode 0 reads instead of its own.
	m0  bool
	res SliceResult
}

// beginSlice performs the per-slice Pre work. It releases the buffers
// Factor filled and chooses the z set: the untouched rows of a resident
// slice under SpCPStream (beginZ), else none — Optimized, and a streamed
// slice under either algorithm, whose nz sets would take a remap of the
// source. With z = ∅ the iterate is the spare version, which the kernels
// read only once it is written: A_{t−1} is the committed version itself,
// flushed first if its z side lags, and no copy seeds the iterate. Then
// it seeds each mode's Gram state (tr(C_{t−1}) = tr(C), and H = C since
// the iterate starts at A_{t−1}), sizes the Ψ workspace to the iterate,
// and compiles the kernel over what it reads, amortized over the inner
// iterations (compile: a source the guarded input scan compiled is
// compiled already).
// Last, the warm start: sₜ solved against A_{t−1}, with ψ read off mode
// 0's MTTKRP over A_{t−1} — the one iteration 1's mode 0 would compute
// over the same factors, so it consumes this one (sliceRun.m0) and the
// slice makes no pass over its nonzeros for the time mode.
func (d *Decomposer) beginSlice(in sliceData) (*sliceRun, error) {
	run := &sliceRun{in: in, kin: in, res: SliceResult{T: d.t, NNZ: in.nnz(), Fit: math.NaN()}}
	mats := make([]*dense.Matrix, 3*d.n)
	run.a, run.prev, run.fac = mats[:d.n:d.n], mats[d.n:2*d.n:2*d.n], mats[2*d.n:]
	var err error
	d.bd.Time(trace.Pre, func() {
		if d.opt.Algorithm == SpCPStream && in.src == nil {
			d.beginZ(run)
		} else {
			d.flushCommitted()
			run.next = d.claimSpare()
			d.beginWrite(run.next, false)
			run.next.setCurrent()
			for m := range d.modes {
				run.a[m], run.prev[m], run.fac[m] = run.next.modes[m].a, d.cur.modes[m].a, d.cur.modes[m].a
			}
		}
		for m := range d.modes {
			md := &d.modes[m]
			md.view = nil
			md.psi = resized(md.psi, run.a[m].Rows, d.k)
			md.trPrev = dense.Trace(md.c)
			md.h.CopyFrom(md.c)
		}
		if err = d.compile(run.kin); err != nil {
			err = fmt.Errorf("core: kernel compile: %w", err)
		}
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.MTTKRP, func() {
		psi := d.modes[0].psi
		if err = d.mttkrpMode(psi, run.fac, 0); err != nil {
			return
		}
		d.rowSweep(coreArgs{a: run.prev[0], m: psi, psi: true}, nil, nil)
		run.m0 = true
		err = d.solveS()
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.Misc, d.buildMuG)
	return run, nil
}

// iterateSlice runs one inner ALS/ADMM iteration (all modes plus the
// time-mode block) and returns its δₜ. This is the steady-state hot
// path: all parallel work dispatches ctx-style through the persistent
// pool, timing uses explicit Add calls, and the Φ factorization reuses
// the Decomposer's Cholesky storage — zero heap allocations per call.
func (d *Decomposer) iterateSlice(run *sliceRun) (float64, error) {
	phi, q := d.scratch1, d.scratch2
	var delta float64
	for n := range d.modes {
		md, last := &d.modes[n], n == d.n-1
		// Q⁽ⁿ⁾ = (⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG (Eq. 14), the "Historical" term: a
		// Hadamard of K×K Grams, replacing the baseline's giant
		// Historical matrix products.
		t0 := time.Now()
		d.buildQ(q, n)
		d.bd.Add(trace.Historical, time.Since(t0))
		// Φ⁽ⁿ⁾ and its Cholesky factorization.
		t0 = time.Now()
		d.buildPhi(phi, n)
		err := d.factorize(phi)
		d.bd.Add(trace.Inverse, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("core: mode %d Φ factorization: %w", n, err)
		}
		// M⁽ⁿ⁾ = MTTKRP(Xₜ, {A}, n), kept raw: the time mode's single
		// Khatri-Rao row sₜ is a column scaling the row sweep applies, and
		// sₜ itself is refreshed from the last mode's M — which ADMM would
		// overwrite with Ψ⁽ᴺ⁾, hence rawLast. The first iteration's mode 0
		// reads the warm start's (beginSlice).
		t0 = time.Now()
		kout := md.psi
		if d.opt.Constraint != nil && last {
			kout = d.rawLast(kout.Rows)
		}
		if n == 0 && run.m0 {
			run.m0 = false
		} else if err := d.mttkrpMode(kout, run.fac, n); err != nil {
			return 0, err
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		if d.opt.Constraint != nil && run.fac[n] != run.a[n] {
			// BF-ADMM warm-starts from the iterate, which on the first
			// iteration is A_{t−1}.
			t0 = time.Now()
			run.a[n].CopyFrom(run.prev[n])
			d.bd.Add(trace.Pre, time.Since(t0))
		}
		// The iterate's rows (Eq. 7): A = Ψ·Φ⁻¹ for Ψ = M·diag(sₜ) +
		// A_{t−1}·Q — under a constraint BF-ADMM, warm-started from the
		// previous iterate — and their C and H in the mode's record, ψ
		// and, with z = ∅, the δ norms.
		num, den, err := d.updateRows(run, n, kout, phi, q)
		if err != nil {
			return 0, err
		}
		run.fac[n] = run.a[n]
		if run.rm != nil {
			// The implicit z parts (Eqs. 11, 13): T = QΦ⁻¹,
			// H_z = C_z,t−1·T, C_z = Tᵀ·C_z,t−1·T. All K×K, and
			// historical-term work (Fig. 8 accounting).
			t0 = time.Now()
			d.chol.SolveRowsInto(md.tFinal, q)
			dense.MulAB(d.tmpKK, md.cz, md.tFinal) // C_z,t−1·T
			dense.Add(md.h, md.h, d.tmpKK)         // H = H_nz + H_z
			dense.MulAtB(md.czCur, md.tFinal, d.tmpKK)
			dense.Add(md.c, md.c, md.czCur) // C = C_nz + C_z
			d.bd.Add(trace.Historical, time.Since(t0))
		}
		if d.opt.Normalize {
			t0 = time.Now()
			num, den = d.normalizeMode(n, coreArgs{a: run.a[n], m: kout, prev: run.prev[n], psi: last, norms: run.rm == nil})
			if run.rm != nil {
				// Scaling T's columns scales the implicit z rows
				// (A_z = A_z,t₋₁·T), and C_z goes with them.
				dense.ScaleColumns(md.tFinal, md.tFinal, d.colScale)
				dense.ScaleColumns(md.czCur, md.czCur, d.colScale)
				dense.ScaleRows(md.czCur, md.czCur, d.colScale)
			}
			d.bd.Add(trace.Misc, time.Since(t0))
		}
		// δₜ = Σ_n ‖A⁽ⁿ⁾−A⁽ⁿ⁾ₜ₋₁‖_F / ‖A⁽ⁿ⁾‖_F (Eq. 15); a z set
		// reduces no norms (den = 0) and takes the trace form below.
		if den > 0 {
			delta += math.Sqrt(num / den)
		}
	}
	if err := d.refreshS(); err != nil {
		return 0, err
	}
	if run.rm != nil {
		delta = d.traceDelta()
	}
	return delta, nil
}

// traceDelta is δₜ in trace form (Eqs. 16–17), for a z set whose rows
// are never materialized in the loop:
// ‖A−Aₜ₋₁‖² = tr(C) + tr(Cₜ₋₁) − 2tr(H), ‖A‖² = tr(C).
func (d *Decomposer) traceDelta() float64 {
	t0 := time.Now()
	var delta float64
	for n := range d.modes {
		md := &d.modes[n]
		den := dense.Trace(md.c)
		num := max(den+md.trPrev-2*dense.Trace(md.h), 0) // cancellation guard
		if den > 0 {
			delta += math.Sqrt(num / den)
		}
	}
	d.bd.Add(trace.Error, time.Since(t0))
	return delta
}

// refreshS is the time-mode ALS block that closes an inner iteration: sₜ
// from the ψ the last mode's sweep left in fitPsi — no pass over the
// nonzeros — and with it the µG + ssᵀ operand.
func (d *Decomposer) refreshS() error {
	t0 := time.Now()
	err := d.solveS()
	d.bd.Add(trace.MTTKRP, time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	d.buildMuG()
	d.bd.Add(trace.Misc, time.Since(t0))
	return nil
}

// finishSlice performs the Post work and returns the slice result: for
// a z set the nz rows and the logged transform (finishZ), the commit of
// the version the slice wrote, the fit, and the G/S temporal update. A
// guarded slice that then fails its health check rolls the commit back.
func (d *Decomposer) finishSlice(run *sliceRun) (SliceResult, error) {
	if run.rm != nil {
		d.bd.Time(trace.Post, func() { d.finishZ(run) })
	} else {
		d.endWrite(run.next)
	}
	d.commit(run.next)
	// The fit's ⟨X, X̂⟩ = sᵀψ takes the ψ the last sₜ refresh left in
	// fitPsi and its ‖X‖² the kernel's compile: no pass over the nonzeros.
	d.bd.Time(trace.Misc, func() { run.res.Fit = d.fit(d.kernel.Norm2()) })
	d.bd.Time(trace.Post, d.advanceTime)
	return run.res, nil
}

// rawLast returns the rows×K buffer a constrained last factor mode's
// kernel writes M into (see iterateSlice), grow-only.
func (d *Decomposer) rawLast(rows int) *dense.Matrix {
	d.lastM = resized(d.lastM, rows, d.k)
	return d.lastM
}
