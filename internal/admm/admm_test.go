package admm_test

import (
	"math"
	"testing"
	"testing/quick"

	"spstream/internal/admm"
	"spstream/internal/baselines"
	"spstream/internal/dense"
)

// baseline is the paper's Algorithm 2 with the given options.
func baseline(opt admm.Options) *baselines.ADMM {
	return baselines.NewADMM(baselines.ADMMOptions{Options: opt})
}

func TestUnconstrainedConvergesToLeastSquares(t *testing.T) {
	aStar, phi, psi := admm.RandomProblem(1, 40, 5)
	a := dense.NewMatrix(40, 5) // cold start at zero
	s := baseline(admm.Options{Tol: 1e-10, MaxIters: 500})
	stats, err := s.Solve(a, phi, psi, admm.Unconstrained{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("did not converge in %d iters", stats.Iters)
	}
	if d := a.MaxAbsDiff(aStar); d > 1e-3 {
		t.Fatalf("unconstrained ADMM off from LS solution by %g", d)
	}
}

func TestNonNegProducesFeasibleSolution(t *testing.T) {
	_, phi, psi := admm.RandomProblem(2, 60, 6)
	a := dense.NewMatrix(60, 6)
	s := baseline(admm.Options{Tol: 1e-8, MaxIters: 300})
	if _, err := s.Solve(a, phi, psi, admm.NonNeg{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Data {
		if v < 0 {
			t.Fatalf("negative entry %g in NonNeg solution", v)
		}
	}
	// NNLS optimality sanity: objective at A must be ≤ objective at the
	// clipped unconstrained solution.
	obj := func(m *dense.Matrix) float64 {
		// ½tr(MΦMᵀ) − tr(MΨᵀ): the quadratic objective up to a constant.
		tmp := dense.NewMatrix(m.Rows, m.Cols)
		dense.MulAB(tmp, m, phi)
		v := 0.0
		for i := 0; i < m.Rows; i++ {
			rm, rt, rp := m.Row(i), tmp.Row(i), psi.Row(i)
			for j := range rm {
				v += 0.5*rm[j]*rt[j] - rm[j]*rp[j]
			}
		}
		return v
	}
	clipped, err := dense.SolveSPD(phi, 0, psi)
	if err != nil {
		t.Fatal(err)
	}
	admm.NonNeg{}.Project(clipped, clipped, nil, nil, 0)
	if obj(a) > obj(clipped)+1e-6*math.Abs(obj(clipped)) {
		t.Fatalf("ADMM NNLS objective %g worse than clipped LS %g", obj(a), obj(clipped))
	}
}

func TestBlockedFusedMatchesBaseline(t *testing.T) {
	f := func(seed uint64) bool {
		_, phi, psi := admm.RandomProblem(seed, 150, 4)
		warm := dense.NewMatrix(150, 4)
		for _, con := range []admm.Constraint{admm.NonNeg{}, admm.Unconstrained{}, admm.L1{Lambda: 0.1}} {
			aBase := warm.Clone()
			aBF := warm.Clone()
			sb := baseline(admm.Options{Tol: 1e-9, MaxIters: 400, Workers: 2})
			sf := admm.NewSolver(admm.Options{Tol: 1e-9, MaxIters: 400, Workers: 2})
			stB, err := sb.Solve(aBase, phi, psi, con)
			if err != nil {
				return false
			}
			stF, err := sf.BlockedFused(aBF, phi, psi, con)
			if err != nil {
				return false
			}
			// Identical iterate sequences → identical iteration counts.
			if stB.Iters != stF.Iters || stB.Converged != stF.Converged {
				return false
			}
			// Solutions agree to solver tolerance (BF is one half-step
			// ahead, so allow slack proportional to √tol).
			if aBase.MaxAbsDiff(aBF) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockedFusedFinalProjectionFeasible(t *testing.T) {
	_, phi, psi := admm.RandomProblem(11, 150, 5)
	a := dense.NewMatrix(150, 5)
	s := admm.NewSolver(admm.Options{Tol: 1e-6, MaxIters: 100})
	if _, err := s.BlockedFused(a, phi, psi, admm.NonNeg{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Data {
		if v < 0 {
			t.Fatalf("BF result infeasible: %g", v)
		}
	}
}

func TestL1InducesSparsity(t *testing.T) {
	_, phi, psi := admm.RandomProblem(3, 80, 6)
	dense0 := dense.NewMatrix(80, 6)
	s := baseline(admm.Options{Tol: 1e-8, MaxIters: 300})
	if _, err := s.Solve(dense0, phi, psi, admm.Unconstrained{}); err != nil {
		t.Fatal(err)
	}
	sparse := dense.NewMatrix(80, 6)
	if _, err := s.Solve(sparse, phi, psi, admm.L1{Lambda: 5}); err != nil {
		t.Fatal(err)
	}
	zeros := func(m *dense.Matrix) int {
		n := 0
		for _, v := range m.Data {
			if v == 0 {
				n++
			}
		}
		return n
	}
	if zeros(sparse) <= zeros(dense0) {
		t.Fatalf("L1 did not induce sparsity: %d vs %d zeros", zeros(sparse), zeros(dense0))
	}
}

func TestNonNegMaxColNormCapsColumns(t *testing.T) {
	_, phi, psi := admm.RandomProblem(4, 50, 4)
	dense.Scale(psi, 10, psi) // force large columns
	a := dense.NewMatrix(50, 4)
	s := baseline(admm.Options{Tol: 1e-8, MaxIters: 300})
	cap := 2.0
	if _, err := s.Solve(a, phi, psi, admm.NonNegMaxColNorm{R: cap}); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Data {
		if v < 0 {
			t.Fatal("infeasible: negative entry")
		}
	}
}

func TestProjectionOperators(t *testing.T) {
	m := dense.FromRows([][]float64{{-1, 2}, {3, -4}})
	admm.NonNeg{}.Project(m, m, nil, nil, 1)
	if m.At(0, 0) != 0 || m.At(0, 1) != 2 || m.At(1, 1) != 0 {
		t.Fatalf("NonNeg projection wrong: %v", m)
	}
	// Idempotence.
	before := m.Clone()
	admm.NonNeg{}.Project(m, m, nil, nil, 1)
	if !m.Equal(before, 0) {
		t.Fatal("NonNeg not idempotent")
	}

	l := dense.FromRows([][]float64{{-1, 0.05}, {0.3, -0.02}})
	admm.L1{Lambda: 0.1}.Project(l, l, nil, nil, 1) // threshold = 0.1
	if l.At(0, 0) != -0.9 || l.At(0, 1) != 0 || math.Abs(l.At(1, 0)-0.2) > 1e-15 || l.At(1, 1) != 0 {
		t.Fatalf("L1 soft threshold wrong: %v", l)
	}

	c := dense.FromRows([][]float64{{3, -1}, {4, 2}})
	norms2 := []float64{25, 5} // col 0 norm 5 > cap 1
	admm.NonNegMaxColNorm{R: 1}.Project(c, c, nil, norms2, 1)
	if math.Abs(c.At(0, 0)-3.0/5) > 1e-15 || c.At(0, 1) != 0 {
		t.Fatalf("col norm projection wrong: %v", c)
	}
}

func TestShapeErrors(t *testing.T) {
	a := dense.NewMatrix(5, 3)
	phi := dense.NewMatrix(3, 3)
	dense.AddScaledIdentity(phi, phi, 1)
	badPsi := dense.NewMatrix(4, 3)
	if _, err := baseline(admm.Options{}).Solve(a, phi, badPsi, admm.NonNeg{}); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := admm.NewSolver(admm.Options{}).BlockedFused(a, dense.NewMatrix(3, 2), dense.NewMatrix(5, 3), admm.NonNeg{}); err == nil {
		t.Fatal("expected non-square Φ error")
	}
}

func TestWarmStartConvergesFaster(t *testing.T) {
	aStar, phi, psi := admm.RandomProblem(7, 60, 5)
	cold := dense.NewMatrix(60, 5)
	s := baseline(admm.Options{Tol: 1e-8, MaxIters: 500})
	stCold, err := s.Solve(cold, phi, psi, admm.Unconstrained{})
	if err != nil {
		t.Fatal(err)
	}
	warm := aStar.Clone() // start at the solution
	stWarm, err := s.Solve(warm, phi, psi, admm.Unconstrained{})
	if err != nil {
		t.Fatal(err)
	}
	if stWarm.Iters > stCold.Iters {
		t.Fatalf("warm start (%d iters) slower than cold (%d)", stWarm.Iters, stCold.Iters)
	}
}

// Adaptive ρ (residual balancing) must still converge to the
// constrained solution and remain feasible; on problems where the
// default ρ is far off, it should not take more iterations than the
// fixed-ρ solver.
func TestAdaptiveRho(t *testing.T) {
	aStar, phi, _ := admm.RandomProblem(21, 60, 5)
	// Skew the problem so tr(Φ)/K is a poor penalty: scale Φ up, making
	// the default ρ huge relative to the data term.
	phiBig := phi.Clone()
	dense.Scale(phiBig, 1000, phiBig)
	psiBig := dense.NewMatrix(60, 5)
	dense.MulAB(psiBig, aStar, phiBig)

	fixed := baseline(admm.Options{Tol: 1e-10, MaxIters: 400})
	aFixed := dense.NewMatrix(60, 5)
	stFixed, err := fixed.Solve(aFixed, phiBig, psiBig, admm.NonNeg{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := baselines.NewADMM(baselines.ADMMOptions{Options: admm.Options{Tol: 1e-10, MaxIters: 400}, AdaptiveRho: true})
	aAdaptive := dense.NewMatrix(60, 5)
	stAdaptive, err := adaptive.Solve(aAdaptive, phiBig, psiBig, admm.NonNeg{})
	if err != nil {
		t.Fatal(err)
	}
	if !stAdaptive.Converged {
		t.Fatalf("adaptive ρ did not converge in %d iters (fixed: %d, converged=%v)",
			stAdaptive.Iters, stFixed.Iters, stFixed.Converged)
	}
	for _, v := range aAdaptive.Data {
		if v < 0 {
			t.Fatal("adaptive ρ produced infeasible solution")
		}
	}
	// Both solvers, when converged, agree on the solution.
	if stFixed.Converged && aFixed.MaxAbsDiff(aAdaptive) > 1e-3 {
		t.Fatalf("adaptive and fixed ρ solutions differ by %g", aFixed.MaxAbsDiff(aAdaptive))
	}
}
