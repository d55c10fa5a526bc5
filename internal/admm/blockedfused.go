package admm

import (
	"spstream/internal/dense"
	"spstream/internal/parallel"
)

// bfBlock is BlockedFused's row-block size, a constant so that the block
// → worker assignment changes no bit: every reduction is one partial per
// block, merged in block order. A, Ã, A₀, U, Ψ of a block: 40 KiB at K = 16.
const bfBlock = 64

// bfArgs carries one BlockedFused call's operands to the pool bodies
// through the Solver (ctx-style dispatch: no closure per iteration).
type bfArgs struct {
	a, psi *dense.Matrix
	con    Constraint
	rho    float64
	nn     int       // column norms² per partial: K when con reads them, else 0
	part   []float64 // the block partials, nn + 4 floats each
}

// block returns the row range of block b and its partial.
func (g *bfArgs) block(b int) (lo, hi int, part []float64) {
	return b * bfBlock, min((b+1)*bfBlock, g.a.Rows), g.part[b*(g.nn+4) : (b+1)*(g.nn+4)]
}

// BlockedFused solves the same constrained problem as Baseline via the
// paper's Algorithm 3: fixed row blocks are shared out among the workers,
// the update / error / init operations and the next solve's right-hand
// side are fused into one element-wise loop whose intermediates live in
// registers, and the residuals (and the column norms a constraint may
// read) are summed per block and merged in block order, so no bit depends
// on the worker count. a is updated in place.
//
// Per block the body is three passes over cache-resident rows: the fused
// element loop, the panel solve of the whole block
// (dense.Cholesky.SolveRows — several rows' substitution chains in
// flight instead of one), and A ← Π(Ã − U). A constraint that reads
// column norms gets A ← Ã − U and the norms there instead, and is applied
// with the merged norms at the next iteration's start.
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

	nBlocks := (rows + bfBlock - 1) / bfBlock
	nn := 0
	if con.NeedsColNorms() {
		nn = k
	}
	stride := nn + 4
	if cap(s.part) < (nBlocks+1)*stride {
		s.part = make([]float64, (nBlocks+1)*stride)
	}
	s.total = s.part[nBlocks*stride : (nBlocks+1)*stride]
	if w := parallel.ClampWorkers(opt.Workers, nBlocks); len(s.views) < 3*w {
		s.views = make([]dense.Matrix, 3*w)
	}
	s.bf = bfArgs{a: a, psi: psi, con: con, rho: p, nn: nn, part: s.part[:nBlocks*stride]}
	defer func() { s.bf = bfArgs{} }()
	pool := parallel.Default()

	// Pre-loop (Alg. 3 lines 4–10): A₀ ← A, first solve with U = 0,
	// A ← Π(Ã) or A ← Ã with the column norms.
	pool.Do(nBlocks, opt.Workers, s, bfFirstBody)
	parallel.SumBlocks(s.total, s.bf.part)

	var stats Stats
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := s.cancelled(); err != nil {
			return stats, err
		}
		stats.Iters = iter
		// One fused pass per iteration; the bodies read the merged column
		// norms in s.total and write only their blocks' partials.
		pool.Do(nBlocks, opt.Workers, s, bfIterBody)
		parallel.SumBlocks(s.total, s.bf.part)
		pr, pn, dr, dn := s.total[nn], s.total[nn+1], s.total[nn+2], s.total[nn+3]
		if relConverged(pr, pn, opt.Tol) && relConverged(dr, dn, opt.Tol) {
			stats.Converged = true
			break
		}
	}
	// A column-norm constraint leaves A = Ã − U un-projected (the fusion
	// is one half-step ahead); project so the result is feasible.
	if nn > 0 {
		con.Project(a, a, nil, s.total[:nn], p)
	}
	return stats, nil
}

func bfFirstBody(ctx any, w int, r parallel.Range) {
	s := ctx.(*Solver)
	g := &s.bf
	a, psi, atld, a0 := g.a, g.psi, &s.atld, &s.a0
	p := g.rho
	for b := r.Lo; b < r.Hi; b++ {
		lo, hi, part := g.block(b)
		clear(part)
		for i := lo; i < hi; i++ {
			ra, r0, rp, rt := a.Row(i), a0.Row(i), psi.Row(i), atld.Row(i)
			r0, rp, rt = r0[:len(ra)], rp[:len(ra)], rt[:len(ra)]
			for j, x := range ra {
				r0[j] = x
				rt[j] = rp[j] + p*x
			}
		}
		// U = 0 here, and Ã − (+0) is Ã bit for bit.
		s.solveAndWrite(w, lo, hi, part[:g.nn])
	}
}

func bfIterBody(ctx any, w int, r parallel.Range) {
	s := ctx.(*Solver)
	g := &s.bf
	a, psi, u, atld, a0 := g.a, g.psi, &s.u, &s.atld, &s.a0
	p, nn := g.rho, g.nn
	view := &s.views[3*w]
	for b := r.Lo; b < r.Hi; b++ {
		lo, hi, part := g.block(b)
		if nn > 0 {
			view.SetRowView(a, lo, hi)
			g.con.Project(view, view, nil, s.total[:nn], p)
		}
		var pr, pn, dr, dn float64
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
		clear(part[:nn])
		s.solveAndWrite(w, lo, hi, part[:nn])
		part[nn], part[nn+1], part[nn+2], part[nn+3] = pr, pn, dr, dn
	}
}

// solveAndWrite solves rows [lo, hi) of Ã in place and writes A from
// them: A ← Π(Ã − U) for a row-local constraint, else A ← Ã − U with
// its column norms² added to norms.
func (s *Solver) solveAndWrite(w, lo, hi int, norms []float64) {
	g := &s.bf
	va, vt, vu := &s.views[3*w], &s.views[3*w+1], &s.views[3*w+2]
	va.SetRowView(g.a, lo, hi)
	vt.SetRowView(&s.atld, lo, hi)
	vu.SetRowView(&s.u, lo, hi)
	s.chol.SolveRows(vt)
	if g.nn == 0 {
		g.con.Project(va, vt, vu, nil, g.rho)
		return
	}
	dense.Sub(va, vt, vu)
	dense.ColNorms2(norms, va)
}
