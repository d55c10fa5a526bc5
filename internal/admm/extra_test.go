package admm_test

import (
	"testing"

	"spstream/internal/admm"
	"spstream/internal/dense"
)

// The column-norm constraint exercises the all-reduce path of Alg. 3;
// baseline and BF must still follow the same iterate sequence.
func TestColNormConstraintBaselineVsBF(t *testing.T) {
	_, phi, psi := admm.RandomProblem(41, 150, 4)
	dense.Scale(psi, 20, psi) // push column norms over the cap
	con := admm.NonNegMaxColNorm{R: 3}
	aBase := dense.NewMatrix(150, 4)
	aBF := dense.NewMatrix(150, 4)
	sb := baseline(admm.Options{Tol: 1e-9, MaxIters: 300, Workers: 2})
	sf := admm.NewSolver(admm.Options{Tol: 1e-9, MaxIters: 300, Workers: 2})
	stB, err := sb.Solve(aBase, phi, psi, con)
	if err != nil {
		t.Fatal(err)
	}
	stF, err := sf.BlockedFused(aBF, phi, psi, con)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Iters != stF.Iters {
		t.Fatalf("iteration counts differ: %d vs %d", stB.Iters, stF.Iters)
	}
	if d := aBase.MaxAbsDiff(aBF); d > 1e-2 {
		t.Fatalf("colnorm-constrained solutions differ by %g", d)
	}
	for _, v := range aBF.Data {
		if v < 0 {
			t.Fatal("BF colnorm result infeasible")
		}
	}
}

// A solver instance must be reusable across different problem shapes
// (the workspace regrows).
func TestSolverShapeReuse(t *testing.T) {
	s := baseline(admm.Options{Tol: 1e-8, MaxIters: 100})
	for _, rows := range []int{10, 50, 20} {
		aStar, phi, psi := admm.RandomProblem(uint64(rows), rows, 4)
		a := dense.NewMatrix(rows, 4)
		if _, err := s.Solve(a, phi, psi, admm.Unconstrained{}); err != nil {
			t.Fatal(err)
		}
		if d := a.MaxAbsDiff(aStar); d > 1e-2 {
			t.Fatalf("rows=%d: off by %g after workspace reuse", rows, d)
		}
	}
}

// MaxIters = 1 must report not-converged (statistically certain for a
// cold start on a constrained problem).
func TestMaxItersReported(t *testing.T) {
	_, phi, psi := admm.RandomProblem(43, 30, 4)
	a := dense.NewMatrix(30, 4)
	s := baseline(admm.Options{Tol: 1e-12, MaxIters: 1})
	st, err := s.Solve(a, phi, psi, admm.NonNeg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iters != 1 || st.Converged {
		t.Fatalf("stats = %+v", st)
	}
}

// Single-row and zero-row iterates are valid edge shapes.
func TestDegenerateShapes(t *testing.T) {
	_, phi, _ := admm.RandomProblem(44, 8, 3)
	one := dense.NewMatrix(1, 3)
	psi1 := dense.NewMatrix(1, 3)
	psi1.Set(0, 1, 2)
	s, sf := baseline(admm.Options{Tol: 1e-8, MaxIters: 100}), admm.NewSolver(admm.Options{Tol: 1e-8, MaxIters: 100})
	if _, err := s.Solve(one, phi, psi1, admm.NonNeg{}); err != nil {
		t.Fatal(err)
	}
	oneBF := dense.NewMatrix(1, 3)
	if _, err := sf.BlockedFused(oneBF, phi, psi1, admm.NonNeg{}); err != nil {
		t.Fatal(err)
	}
	if d := one.MaxAbsDiff(oneBF); d > 1e-3 {
		t.Fatalf("single-row solutions differ by %g", d)
	}
	empty := dense.NewMatrix(0, 3)
	psiE := dense.NewMatrix(0, 3)
	if _, err := s.Solve(empty, phi, psiE, admm.NonNeg{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.BlockedFused(empty, phi, psiE, admm.NonNeg{}); err != nil {
		t.Fatal(err)
	}
}

func TestConstraintNames(t *testing.T) {
	for _, c := range []admm.Constraint{admm.NonNeg{}, admm.L1{Lambda: 1}, admm.NonNegMaxColNorm{R: 1}, admm.Unconstrained{}} {
		if c.Name() == "" {
			t.Fatal("empty constraint name")
		}
	}
	if (admm.NonNeg{}).NeedsColNorms() || !(admm.NonNegMaxColNorm{R: 1}).NeedsColNorms() {
		t.Fatal("NeedsColNorms flags wrong")
	}
}
