package baselines

import (
	"fmt"

	"spstream/internal/admm"
	"spstream/internal/dense"
	"spstream/internal/parallel"
)

// ADMMOptions configure the paper's Algorithm 2: admm.Options, defaulted
// as admm.Solver defaults them, and residual balancing.
type ADMMOptions struct {
	admm.Options
	// AdaptiveRho enables residual balancing (Boyd et al. §3.4.1): when
	// the primal residual dominates the dual one by RhoBalance (or vice
	// versa), ρ is doubled (halved) and the scaled dual variable rescaled
	// accordingly. Each adaptation pays a re-factorization of Φ+ρI, which
	// is why the paper's fused kernel keeps ρ fixed; the option exists for
	// hard constraint sets where a poor initial ρ stalls convergence.
	AdaptiveRho bool
	// RhoBalance is the imbalance ratio that triggers adaptation
	// (default 100, on the squared-norm residuals).
	RhoBalance float64
}

// ADMM is the paper's Algorithm 2, the constrained solve that
// admm.Solver.BlockedFused (Algorithm 3) is measured against: the same
// problem, Φ, ρ and stopping quantities, so both take the same number of
// iterations, but each ADMM operation is its own fine-grained parallel
// pass over the I×K matrices — the memory-traffic profile of the original
// implementation (Table I: 22·I·K + K² words per iteration). The
// workspace grows to the largest shape seen; an ADMM is not safe for
// concurrent use.
type ADMM struct {
	opt         ADMMOptions
	u, atld, a0 dense.Matrix
	buf         []float64
	chol        dense.Cholesky
}

// NewADMM creates the solver with the given options.
func NewADMM(opt ADMMOptions) *ADMM {
	opt.Options = admm.NewSolver(opt.Options).Options()
	if opt.RhoBalance <= 0 {
		opt.RhoBalance = 100
	}
	return &ADMM{opt: opt}
}

// Solve updates a in place (a is the warm start) to the solution of
// min ½‖Ψ − AΦ^{1/2}…‖ s.t. A ∈ con.
func (s *ADMM) Solve(a, phi, psi *dense.Matrix, con admm.Constraint) (admm.Stats, error) {
	opt := s.opt
	rows, k := a.Rows, a.Cols
	if phi.Rows != k || phi.Cols != k || psi.Cols != k || psi.Rows != rows {
		return admm.Stats{}, fmt.Errorf("%w: A %d×%d, Ψ %d×%d, Φ %d×%d",
			admm.ErrBadShape, rows, k, psi.Rows, psi.Cols, phi.Rows, phi.Cols)
	}
	if cap(s.buf) < 3*rows*k {
		s.buf = make([]float64, 3*rows*k)
	}
	view := func(i int) dense.Matrix {
		return dense.Matrix{Rows: rows, Cols: k, Stride: k, Data: s.buf[i*rows*k : (i+1)*rows*k]}
	}
	s.u, s.atld, s.a0 = view(0), view(1), view(2)
	u, atld, a0 := &s.u, &s.atld, &s.a0
	u.Zero()

	// ρ = tr(Φ)/K, floored as admm.Solver floors it.
	p := max(dense.Trace(phi)/float64(k), 1e-12)
	chol := &s.chol
	if err := chol.FactorizeRidge(phi, p); err != nil {
		return admm.Stats{}, err
	}

	var stats admm.Stats
	for iter := 1; iter <= opt.MaxIters; iter++ {
		stats.Iters = iter
		// init: A₀ ← A (separate pass, as in Alg. 2 line 4).
		forRange(rows, opt.Workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				copy(a0.Row(i), a.Row(i))
			}
		})
		// solve: Ã ← (Ψ + ρ(A + U)) (Φ + ρI)⁻¹ — the right-hand sides of
		// the worker's range, then the panel solve over them.
		forRange(rows, opt.Workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				ra, ru, rp, rt := a.Row(i), u.Row(i), psi.Row(i), atld.Row(i)
				for j := range rt {
					rt[j] = rp[j] + p*(ra[j]+ru[j])
				}
			}
			chol.SolveRows(atld.RowView(r.Lo, r.Hi))
		})
		// project: A ← Proj_C(Ã − U); column norms of the pre-projection
		// matrix are computed in a separate reduction pass when needed.
		forRange(rows, opt.Workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				ra, ru, rt := a.Row(i), u.Row(i), atld.Row(i)
				for j := range ra {
					ra[j] = rt[j] - ru[j]
				}
			}
		})
		var colNorms2 []float64
		if con.NeedsColNorms() {
			colNorms2 = reduceVec(rows, opt.Workers, k, func(r parallel.Range, acc []float64) {
				dense.ColNorms2(acc, a.RowView(r.Lo, r.Hi))
			})
		}
		forRange(rows, opt.Workers, func(_ int, r parallel.Range) {
			view := a.RowView(r.Lo, r.Hi)
			con.Project(view, view, nil, colNorms2, p)
		})
		// update: U ← U + A − Ã.
		forRange(rows, opt.Workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				ra, ru, rt := a.Row(i), u.Row(i), atld.Row(i)
				for j := range ru {
					ru[j] += ra[j] - rt[j]
				}
			}
		})
		// error: ‖A−Ã‖²/‖A‖² and ‖A−A₀‖²/‖U‖².
		errs := reduceVec(rows, opt.Workers, 4, func(r parallel.Range, acc []float64) {
			for i := r.Lo; i < r.Hi; i++ {
				ra, ru, rt, r0 := a.Row(i), u.Row(i), atld.Row(i), a0.Row(i)
				for j := range ra {
					x := ra[j]
					y := x - rt[j]
					pdiff := x - r0[j]
					acc[0] += y * y
					acc[1] += x * x
					acc[2] += pdiff * pdiff
					acc[3] += ru[j] * ru[j]
				}
			}
		})
		// The stopping rule of admm.Solver: num/den < Tol, num == 0
		// converged whatever den.
		converged := func(num, den float64) bool { return num == 0 || num < opt.Tol*den }
		if converged(errs[0], errs[1]) && converged(errs[2], errs[3]) {
			stats.Converged = true
			return stats, nil
		}
		// Residual balancing (Boyd §3.4.1): keep the primal residual
		// ‖A−Ã‖² and the proxy dual residual ‖A−A₀‖² within RhoBalance
		// of each other by adapting ρ, rescaling U to keep ρ·U (the
		// unscaled dual) continuous, and re-factorizing Φ+ρI.
		if opt.AdaptiveRho {
			grew := errs[0] > opt.RhoBalance*errs[2] && errs[2] > 0
			shrank := errs[2] > opt.RhoBalance*errs[0] && errs[0] > 0
			if grew || shrank {
				factor := 2.0
				if shrank {
					factor = 0.5
				}
				p *= factor
				dense.Scale(u, 1/factor, u)
				if err := chol.FactorizeRidge(phi, p); err != nil {
					return stats, err
				}
			}
		}
	}
	return stats, nil
}
