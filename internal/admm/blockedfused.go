package admm

import (
	"spstream/internal/dense"
	"spstream/internal/parallel"
)

// bfArgs carries one BlockedFused call's operands to the pool bodies
// through the Solver (ctx-style dispatch: no closure per iteration).
type bfArgs struct {
	a, psi *dense.Matrix
	con    Constraint
	rho    float64
	bs     int // rows per block
}

// block returns the row range of block b.
func (g *bfArgs) block(b int) (lo, hi int) {
	lo = b * g.bs
	hi = lo + g.bs
	if hi > g.a.Rows {
		hi = g.a.Rows
	}
	return lo, hi
}

// BlockedFused solves the same constrained problem as Baseline via the
// paper's Algorithm 3: row blocks are assigned to workers, the update /
// error / init operations and the next solve's right-hand side are fused
// into one element-wise loop whose intermediates live in registers, and
// the projection's column norms are accumulated per worker and
// all-reduced between iterations. a is updated in place.
//
// Per block the body is three passes over cache-resident rows: the fused
// element loop, the panel solve of the whole block
// (dense.Cholesky.SolveRows — several rows' substitution chains in
// flight instead of one), and A ← Ã − U with the column norms. Every
// accumulator still receives its terms in row order, then column order,
// so the split changes no bit of the result.
//
// The iterate sequence is identical to Baseline (same Φ, ρ, stopping
// quantities), so both converge in the same number of iterations; the
// returned A differs by one extra solve+projection half-step, which is
// inherent in the fusion (the loop body computes iteration i's error
// after already producing iteration i+1's Ã).
func (s *Solver) BlockedFused(a, phi, psi *dense.Matrix, con Constraint) (Stats, error) {
	if err := checkShapes(a, phi, psi); err != nil {
		return Stats{}, err
	}
	opt := s.opt
	rows, k := a.Rows, a.Cols
	s.ensureWorkspace(rows, k)
	s.u.Zero()

	p := rho(phi)
	if err := s.chol.FactorizeRidge(phi, p); err != nil {
		return Stats{}, err
	}

	// Row blocks; each worker's range below is a set of whole blocks.
	bs := opt.blockRows(k)
	nBlocks := (rows + bs - 1) / bs
	if len(s.red) < 2*k+4 {
		s.red = make([]float64, 2*k+4)
	}
	red := s.red[:k+4]
	s.colNorms2 = s.red[k+4 : 2*k+4]
	colNorms2 := s.colNorms2
	if w := parallel.ClampWorkers(opt.Workers, nBlocks); len(s.views) < w {
		s.views = make([]dense.Matrix, w)
	}
	s.bf = bfArgs{a: a, psi: psi, con: con, rho: p, bs: bs}
	defer func() { s.bf = bfArgs{} }()
	pool := parallel.Default()

	// Pre-loop (Alg. 3 lines 4–10): A₀ ← A, first solve with U = 0,
	// A ← Ã − U, per-worker column-norm accumulation, all-reduce.
	pool.DoReduceVecInto(colNorms2, nBlocks, opt.Workers, s, bfFirstBody)

	var stats Stats
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := s.cancelled(); err != nil {
			return stats, err
		}
		stats.Iters = iter
		// One fused pass per iteration: project with the previous
		// all-reduced column norms, then the fused element loop
		// (update + error + init + next RHS), then the block solve and
		// fresh column norms. red layout: [0..k) col norms², then
		// pr, pn, dr, dn.
		pool.DoReduceVecInto(red, nBlocks, opt.Workers, s, bfIterBody)
		// Copied, not aliased: with one worker red is itself the next
		// iteration's accumulator while the projection reads the norms.
		copy(colNorms2, red[:k])
		pr, pn, dr, dn := red[k], red[k+1], red[k+2], red[k+3]
		if relConverged(pr, pn, opt.Tol) && relConverged(dr, dn, opt.Tol) {
			stats.Converged = true
			break
		}
	}
	// The loop exits with A = Ã − U un-projected (the fusion is one
	// half-step ahead); apply the projection so the result is feasible.
	pool.Do(nBlocks, opt.Workers, s, bfProjectBody)
	return stats, nil
}

func bfFirstBody(ctx any, w int, r parallel.Range, acc []float64) {
	s := ctx.(*Solver)
	g := &s.bf
	a, psi, atld, a0 := g.a, g.psi, &s.atld, &s.a0
	p := g.rho
	view := &s.views[w]
	for b := r.Lo; b < r.Hi; b++ {
		lo, hi := g.block(b)
		for i := lo; i < hi; i++ {
			ra, r0, rp, rt := a.Row(i), a0.Row(i), psi.Row(i), atld.Row(i)
			r0, rp, rt = r0[:len(ra)], rp[:len(ra)], rt[:len(ra)]
			for j, x := range ra {
				r0[j] = x
				rt[j] = rp[j] + p*x
			}
		}
		view.SetRowView(atld, lo, hi)
		s.chol.SolveRows(view)
		for i := lo; i < hi; i++ {
			ra, rt := a.Row(i), atld.Row(i)
			rt, cn := rt[:len(ra)], acc[:len(ra)]
			for j := range ra {
				v := rt[j] // U = 0, so A = Ã
				ra[j] = v
				cn[j] += v * v
			}
		}
	}
}

func bfIterBody(ctx any, w int, r parallel.Range, acc []float64) {
	s := ctx.(*Solver)
	g := &s.bf
	a, psi, u, atld, a0 := g.a, g.psi, &s.u, &s.atld, &s.a0
	p := g.rho
	k := a.Cols
	view := &s.views[w]
	// The four residual sums stay in registers across the worker's
	// blocks; acc arrives zeroed, so starting them at zero is the same
	// sequence of additions as accumulating in place.
	var pr, pn, dr, dn float64
	for b := r.Lo; b < r.Hi; b++ {
		lo, hi := g.block(b)
		view.SetRowView(a, lo, hi)
		g.con.Project(view, s.colNorms2, p)
		for i := lo; i < hi; i++ {
			ra, ru, rp, rt, r0 := a.Row(i), u.Row(i), psi.Row(i), atld.Row(i), a0.Row(i)
			ru, rp, rt, r0 = ru[:len(ra)], rp[:len(ra)], rt[:len(ra)], r0[:len(ra)]
			for j, x := range ra { // x: projected A
				y := x - rt[j]  // A − Ã
				di := ru[j] + y // new dual value
				ru[j] = di      // update
				pr += y * y     // ‖A−Ã‖²
				pn += x * x     // ‖A‖²
				pd := x - r0[j]
				dr += pd * pd // ‖A−A₀‖²
				dn += di * di // ‖U‖²
				r0[j] = x     // init for next iteration
				rt[j] = rp[j] + p*(x+di)
			}
		}
		view.SetRowView(atld, lo, hi)
		s.chol.SolveRows(view)
		for i := lo; i < hi; i++ {
			ra, ru, rt := a.Row(i), u.Row(i), atld.Row(i)
			ru, rt, cn := ru[:len(ra)], rt[:len(ra)], acc[:len(ra)]
			for j := range ra {
				v := rt[j] - ru[j] // A ← Ã − U (fused with col norm)
				ra[j] = v
				cn[j] += v * v
			}
		}
	}
	acc[k], acc[k+1], acc[k+2], acc[k+3] = pr, pn, dr, dn
}

func bfProjectBody(ctx any, w int, r parallel.Range) {
	s := ctx.(*Solver)
	g := &s.bf
	view := &s.views[w]
	for b := r.Lo; b < r.Hi; b++ {
		lo, hi := g.block(b)
		view.SetRowView(g.a, lo, hi)
		g.con.Project(view, s.colNorms2, g.rho)
	}
}
