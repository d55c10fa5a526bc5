package core

import (
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/trace"
)

// explicitRun holds the per-slice state of Algorithm 1 — Optimized, and
// either algorithm on a streamed slice — between the begin/iterate/finish
// phases. Splitting the slice loop this way keeps every per-slice
// artifact (compiled MTTKRP layouts, the slice's result) out of the
// Decomposer while letting tests drive — and measure — a single
// steady-state inner iteration in isolation.
type explicitRun struct {
	// in is the slice; the kernels read it and d.a. plan is the layout
	// compiled over a resident in, nil for a streamed one, whose every
	// kernel streams.
	in   sliceData
	plan *mttkrp.Plan
	res  SliceResult
}

// beginExplicit performs the per-slice Pre work: snapshot A_{t-1} and
// C_{t-1}, seed H = C (A == A_{t-1} at the start of the inner loop),
// compile the coordinate plan (amortized over the inner iterations) or,
// for a streamed slice, the streamed kernel's per-worker row and block
// schedule, and solve the closed-form sₜ warm start.
func (d *Decomposer) beginExplicit(in sliceData) (*explicitRun, error) {
	run := &explicitRun{
		in:  in,
		res: SliceResult{T: d.t, NNZ: in.nnz(), Fit: math.NaN()},
	}
	var err error
	d.bd.Time(trace.Pre, func() {
		for m := range d.a {
			d.prevA[m].CopyFrom(d.a[m])
			d.cPrev[m].CopyFrom(d.c[m])
			d.h[m].CopyFrom(d.c[m])
		}
		if in.src != nil {
			d.resident = false
			if err = d.streamKernel().Begin(in.src); err != nil {
				err = fmt.Errorf("core: streamed schedule: %w", err)
				return
			}
		} else {
			run.plan = d.beginKernels(in.x)
		}
		if err = d.mttkrpTime(d.fitPsi, in, d.a); err == nil {
			err = d.solveS()
		}
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.Misc, d.buildMuG)
	d.ensurePsi()
	return run, nil
}

// iterateExplicit runs one inner ALS/ADMM iteration (all modes plus the
// time-mode block) and returns its δₜ. This is the steady-state hot
// path: all parallel work dispatches ctx-style through the persistent
// pool, timing uses explicit Add calls, and the Φ factorization reuses
// the Decomposer's Cholesky storage — zero heap allocations per call.
func (d *Decomposer) iterateExplicit(run *explicitRun) (float64, error) {
	phi := d.scratch1
	q := d.scratch2
	con := d.opt.Constraint
	var delta float64
	for n := 0; n < d.n; n++ {
		// Φ⁽ⁿ⁾ and its Cholesky factorization.
		t0 := time.Now()
		d.buildPhi(phi, n)
		err := d.factorize(phi)
		d.bd.Add(trace.Inverse, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("core: mode %d Φ factorization: %w", n, err)
		}
		// M⁽ⁿ⁾ = MTTKRP(Xₜ, {A}, n), kept raw: the time mode's single
		// Khatri-Rao row sₜ is a column scaling the row sweep applies, and
		// sₜ itself is refreshed from the last mode's M — which ADMM would
		// overwrite with Ψ⁽ᴺ⁾, hence rawLast.
		t0 = time.Now()
		kout := d.psi[n]
		if con != nil && n == d.n-1 {
			kout = d.rawLast(d.dims[n])
		}
		if err := d.mttkrpMode(kout, run.in, run.plan, d.a, n); err != nil {
			return 0, err
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		// A⁽ⁿ⁾ = Ψ⁽ⁿ⁾Φ⁻¹ for Ψ⁽ⁿ⁾ = M⁽ⁿ⁾·diag(sₜ) + A⁽ⁿ⁾ₜ₋₁ Q⁽ⁿ⁾, with
		// Q⁽ⁿ⁾ = (⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG the "Historical" term, and what the
		// other modes and δₜ read off the new rows.
		t0 = time.Now()
		d.buildQ(q, n)
		d.bd.Add(trace.Historical, time.Since(t0))
		num, den, err := d.updateRows(&run.res, n, d.a[n], kout, d.prevA[n], d.psi[n], phi, q)
		if err != nil {
			return 0, err
		}
		if d.opt.Normalize {
			t0 = time.Now()
			num, den = d.normalizeMode(n, coreArgs{a: d.a[n], m: kout, prev: d.prevA[n], psi: n == d.n-1})
			d.bd.Add(trace.Misc, time.Since(t0))
		}
		// δₜ = Σ_n ‖A⁽ⁿ⁾−A⁽ⁿ⁾ₜ₋₁‖_F / ‖A⁽ⁿ⁾‖_F (Eq. 15).
		if den > 0 {
			delta += math.Sqrt(num / den)
		}
	}
	return delta, d.refreshS()
}

// refreshS is the time-mode ALS block that closes an inner iteration: sₜ
// from the ψ the last mode's sweep left in fitPsi — no pass over the
// nonzeros — and with it the µG + ssᵀ operand.
func (d *Decomposer) refreshS() error {
	t0 := time.Now()
	d.psiFresh = true
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

// finishExplicit performs the Post work (fit tracking, G/S temporal
// update) and returns the slice result.
func (d *Decomposer) finishExplicit(run *explicitRun) (SliceResult, error) {
	if d.opt.TrackFit {
		var err error
		d.bd.Time(trace.Misc, func() { run.res.Fit, err = d.sliceFit(run.in) })
		if err != nil {
			return run.res, err
		}
	}
	// This slice's rows moved outside the Gram-form bookkeeping (a
	// streamed slice under spCP-stream lands here): like SetAlgorithm,
	// make the next spCP slice recompute C_z,t−1 from scratch.
	d.prevNZ = nil
	d.bd.Time(trace.Post, d.finishSlice)
	return run.res, nil
}

// ensurePsi lazily allocates the Ψ workspace (one Iₙ×K matrix per mode).
func (d *Decomposer) ensurePsi() {
	if d.psi != nil {
		return
	}
	d.psi = make([]*dense.Matrix, d.n)
	for m, dim := range d.dims {
		d.psi[m] = dense.NewMatrix(dim, d.k)
	}
}

// rawLast returns the rows×K buffer a constrained last factor mode's
// kernel writes M into (see iterateExplicit), grow-only.
func (d *Decomposer) rawLast(rows int) *dense.Matrix {
	d.lastM = resized(d.lastM, rows, d.k)
	return d.lastM
}
