package admm

import (
	"errors"
	"fmt"

	"spstream/internal/dense"
)

// Options configure an ADMM solve.
type Options struct {
	// Workers is the parallel width (≤0 = GOMAXPROCS).
	Workers int
	// Tol is ε in the paper's stopping rule
	// ‖A−Ã‖²/‖A‖² < ε ∧ ‖A−A₀‖²/‖U‖² < ε. Default 1e-4.
	Tol float64
	// MaxIters bounds the inner loop. Default 50.
	MaxIters int
	// AdaptiveRho enables residual balancing (Boyd et al. §3.4.1) in
	// the Baseline solver: when the primal residual dominates the dual
	// one by RhoBalance (or vice versa), ρ is doubled (halved) and the
	// scaled dual variable rescaled accordingly. Each adaptation pays a
	// re-factorization of Φ+ρI, which is why the paper's fused kernel
	// keeps ρ fixed; the option exists for hard constraint sets where
	// a poor initial ρ stalls convergence.
	AdaptiveRho bool
	// RhoBalance is the imbalance ratio that triggers adaptation
	// (default 100, on the squared-norm residuals).
	RhoBalance float64
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 50
	}
	if o.RhoBalance <= 0 {
		o.RhoBalance = 100
	}
	return o
}

// Stats reports the outcome of one ADMM solve.
type Stats struct {
	Iters     int
	Converged bool
}

// ErrBadShape is returned when the A/Φ/Ψ shapes are inconsistent.
var ErrBadShape = errors.New("admm: inconsistent matrix shapes")

// Solver owns the reusable workspace so repeated solves allocate
// nothing once it has grown to the largest shape seen — callers such as
// core share one Solver across factor modes of different length. A
// Solver is not safe for concurrent use.
type Solver struct {
	opt Options
	// The dual variable U, Ã and A₀: views, reshaped per solve, of the
	// grow-only backing array buf.
	u, atld, a0 dense.Matrix
	buf         []float64
	// chol holds the factor of Φ + ρI for the current solve.
	chol dense.Cholesky
	// BlockedFused state: one partial per row block, then their merge
	// total at the end of the same array (the K column norms² when the
	// constraint reads them, then the four residual sums), three block
	// views per worker, and the operands of the call in flight.
	part, total []float64
	views       []dense.Matrix
	bf          bfArgs
	// cancel, when set, is polled between ADMM iterations; a non-nil
	// return aborts the solve with that error.
	cancel func() error
}

// NewSolver creates a solver with the given options.
func NewSolver(opt Options) *Solver {
	return &Solver{opt: opt.withDefaults()}
}

// Options returns the solver's (defaulted) options.
func (s *Solver) Options() Options { return s.opt }

// SetMaxIters adjusts the inner-iteration bound for subsequent solves
// (floor 1). The live path's degradation controller uses it to trade
// constraint-solve accuracy for throughput under overload.
func (s *Solver) SetMaxIters(n int) {
	if n < 1 {
		n = 1
	}
	s.opt.MaxIters = n
}

// SetCancel installs (or clears, with nil) a cancellation check polled
// between ADMM iterations — typically a context.Context's Err method —
// so a hung or over-deadline slice can abandon the inner solve at an
// iteration boundary. The in-place iterate A stays well-defined (it is
// a feasible-in-progress ADMM iterate); callers roll back or retry at
// the slice level.
func (s *Solver) SetCancel(f func() error) { s.cancel = f }

// cancelled polls the installed cancellation check.
func (s *Solver) cancelled() error {
	if s.cancel == nil {
		return nil
	}
	return s.cancel()
}

// ensureWorkspace reshapes U, Ã and A₀ to rows×cols over the backing
// array, growing it only when the shape is the largest so far. Contents
// are unspecified; every solve zeroes U and overwrites the other two.
func (s *Solver) ensureWorkspace(rows, cols int) {
	n := rows * cols
	if cap(s.buf) < 3*n {
		s.buf = make([]float64, 3*n)
	}
	view := func(i int) dense.Matrix {
		return dense.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: s.buf[i*n : (i+1)*n : (i+1)*n]}
	}
	s.u, s.atld, s.a0 = view(0), view(1), view(2)
}

func checkShapes(a, phi, psi *dense.Matrix) error {
	k := phi.Rows
	if phi.Cols != k {
		return fmt.Errorf("%w: Φ is %d×%d", ErrBadShape, phi.Rows, phi.Cols)
	}
	if a.Cols != k || psi.Cols != k || a.Rows != psi.Rows {
		return fmt.Errorf("%w: A %d×%d, Ψ %d×%d, Φ %d×%d",
			ErrBadShape, a.Rows, a.Cols, psi.Rows, psi.Cols, k, k)
	}
	return nil
}

// rho returns the ADMM penalty ρ = tr(Φ)/K with a floor for degenerate
// (near-zero) Φ.
func rho(phi *dense.Matrix) float64 {
	r := dense.Trace(phi) / float64(phi.Rows)
	if r <= 1e-12 {
		r = 1e-12
	}
	return r
}

// relConverged implements num/den < tol with a guard against zero
// denominators (num == 0 counts as converged regardless).
func relConverged(num, den, tol float64) bool {
	if num == 0 {
		return true
	}
	return num < tol*den
}
