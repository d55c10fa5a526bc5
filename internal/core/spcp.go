package core

import (
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// spcpRun holds the per-slice state of the paper's Algorithm 4
// (spCP-stream) between the begin/iterate/finish phases: the remapped
// slice, its compiled MTTKRP plan, the gathered A_nz iterates, and the
// per-mode final transforms. Factor rows are partitioned per mode into
// the nz(n) subset touched by this slice's nonzeros and the untouched
// z(n) subset. Only A_nz is materialized and iterated on; the z rows are
// carried implicitly through the K×K Gram matrices C_z (Eq. 11) and
// updated explicitly once, after convergence, by the accumulated
// transform Q·Φ⁻¹ of the final iteration (Eq. 6). The inner loop
// therefore costs O(nnz·K + |nz|·K² + K³) per mode instead of
// O(nnz·K + Iₙ·K²) — the source of the 102× speedups on skewed tensors.
type spcpRun struct {
	x       *sptensor.Tensor
	rm      *mttkrp.Remapped
	plan    *mttkrp.Plan
	aNzPrev []*dense.Matrix
	aNz     []*dense.Matrix
	tFinal  []*dense.Matrix
	czCur   []*dense.Matrix
	tmpKK   *dense.Matrix
	res     SliceResult
}

// beginSpCP performs the Pre work: remap, nz bookkeeping, incremental
// C_z,t−1 maintenance, the A_nz gathers, the per-slice MTTKRP plan over
// the remapped slice (amortized across all inner iterations), and the
// sₜ warm start.
func (d *Decomposer) beginSpCP(x *sptensor.Tensor) (*spcpRun, error) {
	run := &spcpRun{
		x:   x,
		res: SliceResult{T: d.t, NNZ: x.NNZ(), Fit: math.NaN()},
	}
	var err error
	d.bd.Time(trace.Pre, func() {
		// Pooled remap (ascending local ids — spCP's incremental C_z
		// bookkeeping relies on sorted NZ sets): the dense LUT scratch,
		// NZ lists, and index columns are reused across slices.
		run.rm = d.remapper.Begin(x, nil)
		rm := run.rm
		if d.prevNZ == nil || d.opt.DirectCz {
			// First slice (or the DirectCz ablation): C_z,t−1 =
			// C − Gram(A_nz) from scratch.
			for m := range d.a {
				aNzPrevM := gatherNZ(d.a[m], rm.NZ[m])
				gram := dense.NewMatrix(d.k, d.k)
				dense.GramParallel(gram, aNzPrevM, d.opt.Workers)
				dense.Sub(d.cz[m], d.c[m], gram)
			}
		} else {
			// Algorithm 4 lines 8–11: adjust C_z,t−1 by the rows that
			// left (add) and entered (subtract) the nz set.
			for m := range d.a {
				left := mttkrp.SetDiff(d.prevNZ[m], rm.NZ[m])
				entered := mttkrp.SetDiff(rm.NZ[m], d.prevNZ[m])
				if len(left) > 0 {
					g := dense.NewMatrix(d.k, d.k)
					dense.GramParallel(g, gatherNZ(d.a[m], left), d.opt.Workers)
					dense.Add(d.cz[m], d.cz[m], g)
				}
				if len(entered) > 0 {
					g := dense.NewMatrix(d.k, d.k)
					dense.GramParallel(g, gatherNZ(d.a[m], entered), d.opt.Workers)
					dense.Sub(d.cz[m], d.cz[m], g)
				}
			}
		}
		// Gather A_nz,t−1 and initialize the iterate A_nz from it; seed
		// the Gram state exactly like the explicit path.
		run.aNzPrev = make([]*dense.Matrix, d.n)
		run.aNz = make([]*dense.Matrix, d.n)
		run.tFinal = make([]*dense.Matrix, d.n)
		run.czCur = make([]*dense.Matrix, d.n)
		for m := range d.a {
			run.aNzPrev[m] = gatherNZ(d.a[m], rm.NZ[m])
			run.aNz[m] = run.aNzPrev[m].Clone()
			run.tFinal[m] = dense.NewMatrix(d.k, d.k)
			run.czCur[m] = dense.NewMatrix(d.k, d.k)
			d.cPrev[m].CopyFrom(d.c[m])
			d.h[m].CopyFrom(d.c[m])
		}
		run.tmpKK = dense.NewMatrix(d.k, d.k)
		// Ψ_nz workspaces sized per mode (row counts differ across
		// modes, so each mode owns its own buffer — resizing one shared
		// buffer would allocate on every inner iteration).
		d.ensureNzPsi(rm)
		// The compiled MTTKRP layouts over the remapped slice, reused by
		// every A_nz update of the inner loop. Kernel selection profiles
		// the remapped slice — its mode lengths are the nz-row counts, so
		// the cost model sees the problem the kernels actually run on.
		run.plan = d.beginKernels(rm.X)
		// sₜ update over the remapped slice and gathered prev factors
		// (identical values, slice-local footprint).
		if err = d.mttkrpTime(d.fitPsi, sliceData{x: rm.X}, run.aNzPrev); err == nil {
			err = d.solveS()
		}
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.Misc, d.buildMuG)
	return run, nil
}

// iterateSpCP runs one inner iteration of Algorithm 4 and returns its
// δₜ. Steady-state allocation-free, like iterateExplicit.
func (d *Decomposer) iterateSpCP(run *spcpRun) (float64, error) {
	phi := d.scratch1
	q := d.scratch2
	con := d.opt.Constraint
	var kout *dense.Matrix
	for n := 0; n < d.n; n++ {
		// Q⁽ⁿ⁾ (Eq. 14) — Hadamard of K×K Grams, replacing the
		// baseline's giant Historical matrix products.
		t0 := time.Now()
		d.buildQ(q, n)
		d.bd.Add(trace.Historical, time.Since(t0))
		t0 = time.Now()
		d.buildPhi(phi, n)
		err := d.factorize(phi)
		d.bd.Add(trace.Inverse, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("core: spcp mode %d Φ factorization: %w", n, err)
		}
		// A_nz update (Eq. 7): plan-based spMTTKRP over gathered factors,
		// kept raw (see iterateExplicit), then its column scaling by sₜ
		// plus the nz part of the historical term, and the Φ solve.
		t0 = time.Now()
		kout = d.nzPsi[n]
		if con != nil && n == d.n-1 {
			kout = d.rawLast(kout.Rows)
		}
		if err := d.mttkrpMode(kout, sliceData{x: run.rm.X}, run.plan, run.aNz, n); err != nil {
			return 0, err
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		t0 = time.Now()
		if con == nil {
			d.stageRHS(run.aNz[n], kout, run.aNzPrev[n], q)
			d.solveRows(run.aNz[n])
		} else {
			// Experimental constrained extension (§VII): the nz rows
			// are solved with BF-ADMM (warm-started from the previous
			// iterate); the z rows stay linear and are projected once
			// per slice in Post.
			d.stageRHS(d.nzPsi[n], kout, run.aNzPrev[n], q)
			st, e := d.solver.BlockedFused(run.aNz[n], phi, d.nzPsi[n], con)
			run.res.ADMMIters += st.Iters
			err = e
		}
		d.bd.Add(trace.Update, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("core: spcp mode %d ADMM: %w", n, err)
		}
		// Gram refresh: C_nz from the explicit nz rows; the H_nz
		// cross-Gram is historical-term work (Fig. 8 accounting) …
		t0 = time.Now()
		dense.GramParallel(d.c[n], run.aNz[n], d.opt.Workers) // C_nz into c[n]
		d.bd.Add(trace.Gram, time.Since(t0))
		t0 = time.Now()
		dense.MulAtBParallel(d.h[n], run.aNzPrev[n], run.aNz[n], d.opt.Workers)
		// … and the implicit z parts (Eqs. 11, 13): T = QΦ⁻¹,
		// H_z = C_z,t−1·T, C_z = Tᵀ·C_z,t−1·T. All K×K.
		d.chol.SolveRowsInto(run.tFinal[n], q)
		dense.MulAB(run.tmpKK, d.cz[n], run.tFinal[n]) // C_z,t−1·T
		dense.Add(d.h[n], d.h[n], run.tmpKK)           // H = H_nz + H_z
		dense.MulAtB(run.czCur[n], run.tFinal[n], run.tmpKK)
		dense.Add(d.c[n], d.c[n], run.czCur[n]) // C = C_nz + C_z
		d.bd.Add(trace.Historical, time.Since(t0))
		if d.opt.Normalize {
			t0 = time.Now()
			d.normalizeModeSpCP(n, run.aNz[n], run.tFinal[n], run.czCur[n])
			d.bd.Add(trace.Misc, time.Since(t0))
		}
	}
	// Time-mode ALS block: refresh sₜ from the last mode's raw MTTKRP and
	// its updated nz rows (see iterateExplicit), then the µG + ssᵀ operand.
	t0 := time.Now()
	d.colDots(d.fitPsi, kout, run.aNz[d.n-1])
	d.psiFresh = true
	err := d.solveS()
	d.bd.Add(trace.MTTKRP, time.Since(t0))
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	d.buildMuG()
	d.bd.Add(trace.Misc, time.Since(t0))
	// Trace-form convergence (Eqs. 16–17):
	// ‖A−Aₜ₋₁‖² = tr(C) + tr(Cₜ₋₁) − 2tr(H), ‖A‖² = tr(C).
	t0 = time.Now()
	var delta float64
	for n := 0; n < d.n; n++ {
		den := dense.Trace(d.c[n])
		num := den + dense.Trace(d.cPrev[n]) - 2*dense.Trace(d.h[n])
		if num < 0 {
			num = 0 // floating-point cancellation guard
		}
		if den > 0 {
			delta += math.Sqrt(num / den)
		}
	}
	d.bd.Add(trace.Error, time.Since(t0))
	return delta, nil
}

// finishSpCP materializes A = A_z ⊕ A_nz (Alg. 4 line 34) and performs
// the shared Post bookkeeping.
func (d *Decomposer) finishSpCP(run *spcpRun) SliceResult {
	rm := run.rm
	d.bd.Time(trace.Post, func() {
		for m := range d.a {
			isNZ := d.markNZ(d.a[m].Rows, rm.NZ[m])
			projected := d.applyZTransform(d.a[m], isNZ, run.tFinal[m])
			rm.ScatterMode(d.a[m], run.aNz[m], m)
			if projected {
				// The z rows changed beyond the linear transform, so
				// re-synchronize C_z (and with it C) from the
				// materialized rows — one Gram pass per slice.
				gramExcluding(d.cz[m], d.a[m], isNZ, d.opt.Workers)
				gram := dense.NewMatrix(d.k, d.k)
				dense.GramParallel(gram, run.aNz[m], d.opt.Workers)
				dense.Add(d.c[m], d.cz[m], gram)
			} else {
				d.cz[m].CopyFrom(run.czCur[m])
			}
			d.unmarkNZ(rm.NZ[m])
		}
		if d.prevNZ == nil {
			d.prevNZ = make([][]int32, d.n)
		}
		// Deep copy: the pooled remapper reuses rm.NZ's storage on the
		// next Begin, so aliasing it here would corrupt the incremental
		// C_z bookkeeping of the following slice.
		for m := range rm.NZ {
			d.prevNZ[m] = append(d.prevNZ[m][:0], rm.NZ[m]...)
		}
	})
	if d.opt.TrackFit {
		// The fit of a resident slice cannot fail.
		d.bd.Time(trace.Misc, func() { run.res.Fit, _ = d.sliceFit(sliceData{x: run.x}) })
	}
	d.bd.Time(trace.Post, d.finishSlice)
	return run.res
}

// ensureNzPsi sizes the per-mode Ψ_nz workspaces to the remapped
// slice's nz row counts, reallocating only the modes whose count changed
// since the previous slice.
func (d *Decomposer) ensureNzPsi(rm *mttkrp.Remapped) {
	if d.nzPsi == nil {
		d.nzPsi = make([]*dense.Matrix, d.n)
	}
	for m := range d.nzPsi {
		rows := len(rm.NZ[m])
		if d.nzPsi[m] == nil || d.nzPsi[m].Rows != rows || d.nzPsi[m].Cols != d.k {
			d.nzPsi[m] = dense.NewMatrix(rows, d.k)
		}
	}
}

// markNZ returns the Decomposer's row mask, grown to rows entries, with
// exactly the rows of nz set. The mask is all-false between uses:
// unmarkNZ must follow, so a slice pays O(|nz|) per mode for it instead
// of allocating and zeroing O(Iₙ).
func (d *Decomposer) markNZ(rows int, nz []int32) []bool {
	if len(d.isNZ) < rows {
		d.isNZ = make([]bool, rows)
	}
	for _, i := range nz {
		d.isNZ[i] = true
	}
	return d.isNZ[:rows]
}

// unmarkNZ clears the rows markNZ set.
func (d *Decomposer) unmarkNZ(nz []int32) {
	for _, i := range nz {
		d.isNZ[i] = false
	}
}

// applyZTransform updates every z row of the full factor in place:
// row ← row·T (Eq. 6 with A_z,t−1 being the untouched rows of a). isNZ
// marks the rows to skip; all other rows are transformed. In the
// constrained extension the materialized z rows are additionally
// projected onto the constraint set; the return value reports whether
// that projection ran (the caller must then re-synchronize the Grams).
func (d *Decomposer) applyZTransform(a *dense.Matrix, isNZ []bool, t *dense.Matrix) bool {
	k := d.k
	con := d.opt.Constraint
	if need := parallel.ClampWorkers(d.opt.Workers, a.Rows) * k; len(d.zTmp) < need {
		d.zTmp = make([]float64, need)
	}
	parallel.For(a.Rows, d.opt.Workers, func(w int, r parallel.Range) {
		tmp := d.zTmp[w*k : (w+1)*k]
		for i := r.Lo; i < r.Hi; i++ {
			if isNZ[i] {
				continue
			}
			// Four columns of the product at a time, their sums in
			// registers: column j still adds row[p]·T[p][j] for ascending
			// p from zero, so every bit matches one dot product per
			// column, but the four chains overlap where a lone one waits
			// on each addition.
			row := a.Row(i)
			j := 0
			for ; j+4 <= k; j += 4 {
				var s0, s1, s2, s3 float64
				for p, rp := range row {
					tr := t.Data[p*t.Stride+j:][:4]
					s0 += rp * tr[0]
					s1 += rp * tr[1]
					s2 += rp * tr[2]
					s3 += rp * tr[3]
				}
				tmp[j], tmp[j+1], tmp[j+2], tmp[j+3] = s0, s1, s2, s3
			}
			for ; j < k; j++ {
				sum := 0.0
				for p, rp := range row {
					sum += rp * t.Data[p*t.Stride+j]
				}
				tmp[j] = sum
			}
			copy(row, tmp)
			if con != nil {
				rowView := a.RowView(i, i+1)
				con.Project(rowView, nil, 1)
			}
		}
	})
	return con != nil
}

// gramExcluding computes dst = Σ_{i ∉ nz} a[i]ᵀa[i] — the Gram of the z
// rows (those isNZ does not mark) — without gathering them, via
// per-worker partials reduced in worker order.
func gramExcluding(dst, a *dense.Matrix, isNZ []bool, workers int) {
	k := a.Cols
	partial := parallel.ReduceVec(a.Rows, workers, k*k, func(_ int, r parallel.Range, acc []float64) {
		for i := r.Lo; i < r.Hi; i++ {
			if isNZ[i] {
				continue
			}
			row := a.Row(i)
			for x, vx := range row {
				if vx == 0 {
					continue
				}
				off := x * k
				for y := x; y < k; y++ {
					acc[off+y] += vx * row[y]
				}
			}
		}
	})
	for x := 0; x < k; x++ {
		for y := x; y < k; y++ {
			v := partial[x*k+y]
			dst.Data[x*dst.Stride+y] = v
			dst.Data[y*dst.Stride+x] = v
		}
	}
}

// gatherNZ gathers the rows listed in idx (int32) from src.
func gatherNZ(src *dense.Matrix, idx []int32) *dense.Matrix {
	out := dense.NewMatrix(len(idx), src.Cols)
	for r, i := range idx {
		copy(out.Row(r), src.Row(int(i)))
	}
	return out
}
