// Package admm implements the alternating direction method of
// multipliers solver used by constrained CP-stream for the factor-matrix
// update A ← argmin ½‖Ψ − AΦ‖ s.t. A ∈ C, in two variants:
//
//   - Baseline (paper Alg. 2): each ADMM operation (init, solve,
//     project, update, error) is a separate fine-grained parallel pass
//     over the I×K matrices, exactly like the original OpenMP code.
//     Every pass re-streams the matrices from memory, which is why the
//     kernel is bandwidth-bound (paper Table I).
//   - BlockedFused (paper Alg. 3): matrices are divided into fixed row
//     blocks shared out among the workers; update, error, init and the
//     next solve's right-hand side are fused into a single element-wise
//     loop holding intermediates in registers, and the column norms
//     needed by the projection are summed per block and merged in block
//     order. Memory traffic drops from 22·I·K+K² to 15·I·K+K² words per
//     iteration.
package admm

import (
	"math"

	"spstream/internal/dense"
)

// Constraint is a projection onto the constraint set C applied row-block
// by row-block. colNorms2, when the constraint requests it, holds the
// squared column 2-norms of the full pre-projection matrix (the CG
// all-reduce of Alg. 3); rho is the current ADMM penalty, needed by
// proximal (rather than pure projection) operators such as ℓ₁.
type Constraint interface {
	// Name identifies the constraint in logs and errors.
	Name() string
	// NeedsColNorms reports whether Project consumes colNorms2.
	NeedsColNorms() bool
	// Project sets dst = Π(x − u) element by element, so ADMM's
	// A ← Π(Ã − U) is one pass; u == nil means Π(x). x and u have dst's
	// shape, and dst may be x.
	Project(dst, x, u *dense.Matrix, colNorms2 []float64, rho float64)
}

// rowsAt returns row i of dst, x and u (nil when u is), cut to dst's
// width.
func rowsAt(dst, x, u *dense.Matrix, i int) (rd, rx, ru []float64) {
	rd = dst.Row(i)
	rx = x.Row(i)[:len(rd)]
	if u != nil {
		ru = u.Row(i)[:len(rd)]
	}
	return rd, rx, ru
}

// NonNeg projects onto the non-negative orthant: A[i][j] ← max(0, ·).
// This is the constraint the paper benchmarks ("e.g., non-negativity").
type NonNeg struct{}

// Name implements Constraint.
func (NonNeg) Name() string { return "nonneg" }

// NeedsColNorms implements Constraint.
func (NonNeg) NeedsColNorms() bool { return false }

// Project implements Constraint.
func (NonNeg) Project(dst, x, u *dense.Matrix, _ []float64, _ float64) {
	for i := 0; i < dst.Rows; i++ {
		rd, rx, ru := rowsAt(dst, x, u, i)
		for j, v := range rx {
			if ru != nil {
				v -= ru[j]
			}
			rd[j] = math.Float64frombits(math.Float64bits(v) &^ maskIf(v < 0))
		}
	}
}

// maskIf returns all ones when cond holds and zero otherwise. The
// projections select with it instead of branching: inside ADMM the sign
// of Ã − U is a coin flip per element, so a jump on it mispredicts every
// other element, while the bool-to-integer idiom below compiles to a
// flag set. Masking v's bits with it yields v bit for bit (−0 and NaN
// included) or +0, exactly what the branch assigned.
func maskIf(cond bool) uint64 {
	var m uint64
	if cond {
		m = 1
	}
	return -m
}

// L1 is the soft-thresholding proximal operator for λ‖A‖₁ (sparsity
// constraint, the paper's other example). Within ADMM the threshold is
// λ/ρ.
type L1 struct{ Lambda float64 }

// Name implements Constraint.
func (L1) Name() string { return "l1" }

// NeedsColNorms implements Constraint.
func (L1) NeedsColNorms() bool { return false }

// Project implements Constraint.
func (c L1) Project(dst, x, u *dense.Matrix, _ []float64, rho float64) {
	thr := c.Lambda / rho
	for i := 0; i < dst.Rows; i++ {
		rd, rx, ru := rowsAt(dst, x, u, i)
		for j, v := range rx {
			if ru != nil {
				v -= ru[j]
			}
			// v > thr → v − thr; else v < −thr → v + thr; else +0.
			up := maskIf(v > thr)
			dn := maskIf(v < -thr) &^ up
			rd[j] = math.Float64frombits(math.Float64bits(v-thr)&up | math.Float64bits(v+thr)&dn)
		}
	}
}

// NonNegMaxColNorm combines non-negativity with a column-norm cap
// ‖aₖ‖₂ ≤ R (sequential projection onto the two sets). It exercises the
// column-norm all-reduce path of Alg. 3 — the one ADMM operation that is
// not row-wise independent (paper §IV-A).
type NonNegMaxColNorm struct{ R float64 }

// Name implements Constraint.
func (NonNegMaxColNorm) Name() string { return "nonneg-maxcolnorm" }

// NeedsColNorms implements Constraint.
func (NonNegMaxColNorm) NeedsColNorms() bool { return true }

// Project implements Constraint.
func (c NonNegMaxColNorm) Project(dst, x, u *dense.Matrix, colNorms2 []float64, _ float64) {
	for i := 0; i < dst.Rows; i++ {
		rd, rx, ru := rowsAt(dst, x, u, i)
		for j, v := range rx {
			if ru != nil {
				v -= ru[j]
			}
			// The cap test depends on the column alone, so it predicts;
			// the sign test does not, so it is a mask.
			w := v
			if n2 := colNorms2[j]; n2 > c.R*c.R {
				w = v * c.R / math.Sqrt(n2)
			}
			rd[j] = math.Float64frombits(math.Float64bits(w) &^ maskIf(v < 0))
		}
	}
}

// Unconstrained is the identity projection; ADMM with it converges to
// the plain least-squares solution and exists for testing.
type Unconstrained struct{}

// Name implements Constraint.
func (Unconstrained) Name() string { return "unconstrained" }

// NeedsColNorms implements Constraint.
func (Unconstrained) NeedsColNorms() bool { return false }

// Project implements Constraint.
func (Unconstrained) Project(dst, x, u *dense.Matrix, _ []float64, _ float64) {
	if u != nil {
		dense.Sub(dst, x, u)
	} else if dst != x {
		dst.CopyFrom(x)
	}
}
