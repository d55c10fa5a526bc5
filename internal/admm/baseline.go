package admm

import (
	"spstream/internal/dense"
	"spstream/internal/parallel"
)

// Baseline solves min ½‖Ψ − AΦ^{1/2}…‖ s.t. A ∈ C via the paper's
// Algorithm 2, updating a in place (a is the warm start). Each ADMM
// operation is its own fine-grained parallel pass over the I×K
// matrices, faithfully reproducing the memory-traffic profile of the
// original implementation (Table I: 22·I·K + K² words per iteration).
func (s *Solver) Baseline(a, phi, psi *dense.Matrix, con Constraint) (Stats, error) {
	if err := checkShapes(a, phi, psi); err != nil {
		return Stats{}, err
	}
	opt := s.opt
	rows, k := a.Rows, a.Cols
	s.ensureWorkspace(rows, k)
	u, atld, a0 := &s.u, &s.atld, &s.a0
	u.Zero()

	p := rho(phi)
	chol := &s.chol
	if err := chol.FactorizeRidge(phi, p); err != nil {
		return Stats{}, err
	}

	var stats Stats
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := s.cancelled(); err != nil {
			return stats, err
		}
		stats.Iters = iter
		// init: A₀ ← A (separate pass, as in Alg. 2 line 4).
		parallel.For(rows, opt.Workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				copy(a0.Row(i), a.Row(i))
			}
		})
		// solve: Ã ← (Ψ + ρ(A + U)) (Φ + ρI)⁻¹ — the right-hand sides of
		// the worker's range, then the panel solve over them.
		parallel.For(rows, opt.Workers, func(_ int, r parallel.Range) {
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
		parallel.For(rows, opt.Workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				ra, ru, rt := a.Row(i), u.Row(i), atld.Row(i)
				for j := range ra {
					ra[j] = rt[j] - ru[j]
				}
			}
		})
		var colNorms2 []float64
		if con.NeedsColNorms() {
			colNorms2 = parallel.ReduceVec(rows, opt.Workers, k, func(_ int, r parallel.Range, acc []float64) {
				dense.ColNorms2(acc, a.RowView(r.Lo, r.Hi))
			})
		}
		parallel.For(rows, opt.Workers, func(_ int, r parallel.Range) {
			con.Project(a.RowView(r.Lo, r.Hi), colNorms2, p)
		})
		// update: U ← U + A − Ã.
		parallel.For(rows, opt.Workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				ra, ru, rt := a.Row(i), u.Row(i), atld.Row(i)
				for j := range ru {
					ru[j] += ra[j] - rt[j]
				}
			}
		})
		// error: ‖A−Ã‖²/‖A‖² and ‖A−A₀‖²/‖U‖².
		errs := parallel.ReduceVec(rows, opt.Workers, 4, func(_ int, r parallel.Range, acc []float64) {
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
		if relConverged(errs[0], errs[1], opt.Tol) && relConverged(errs[2], errs[3], opt.Tol) {
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
