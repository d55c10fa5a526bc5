package admm

import (
	"math"
	"testing"
	"testing/quick"

	"spstream/internal/dense"
	"spstream/internal/synth"
)

// randomProblem builds a random well-conditioned constrained LS problem:
// Φ = BᵀB + I (K×K SPD), Ψ = A*·Φ for a known A*, so the unconstrained
// minimizer is exactly A*.
func randomProblem(seed uint64, rows, k int) (aStar, phi, psi *dense.Matrix) {
	r := synth.NewRNG(seed)
	b := dense.NewMatrix(k+4, k)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	phi = dense.NewMatrix(k, k)
	dense.Gram(phi, b)
	dense.AddScaledIdentity(phi, phi, 1)
	aStar = dense.NewMatrix(rows, k)
	for i := range aStar.Data {
		aStar.Data[i] = r.NormFloat64()
	}
	psi = dense.NewMatrix(rows, k)
	dense.MulAB(psi, aStar, phi)
	return aStar, phi, psi
}

func TestUnconstrainedConvergesToLeastSquares(t *testing.T) {
	aStar, phi, psi := randomProblem(1, 40, 5)
	a := dense.NewMatrix(40, 5) // cold start at zero
	s := NewSolver(Options{Tol: 1e-10, MaxIters: 500})
	stats, err := s.Baseline(a, phi, psi, Unconstrained{})
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
	_, phi, psi := randomProblem(2, 60, 6)
	a := dense.NewMatrix(60, 6)
	s := NewSolver(Options{Tol: 1e-8, MaxIters: 300})
	if _, err := s.Baseline(a, phi, psi, NonNeg{}); err != nil {
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
	NonNeg{}.Project(clipped, clipped, nil, nil, 0)
	if obj(a) > obj(clipped)+1e-6*math.Abs(obj(clipped)) {
		t.Fatalf("ADMM NNLS objective %g worse than clipped LS %g", obj(a), obj(clipped))
	}
}

func TestBlockedFusedMatchesBaseline(t *testing.T) {
	f := func(seed uint64) bool {
		_, phi, psi := randomProblem(seed, 150, 4)
		warm := dense.NewMatrix(150, 4)
		for _, con := range []Constraint{NonNeg{}, Unconstrained{}, L1{Lambda: 0.1}} {
			aBase := warm.Clone()
			aBF := warm.Clone()
			sb := NewSolver(Options{Tol: 1e-9, MaxIters: 400, Workers: 2})
			sf := NewSolver(Options{Tol: 1e-9, MaxIters: 400, Workers: 2})
			stB, err := sb.Baseline(aBase, phi, psi, con)
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
	_, phi, psi := randomProblem(11, 150, 5)
	a := dense.NewMatrix(150, 5)
	s := NewSolver(Options{Tol: 1e-6, MaxIters: 100})
	if _, err := s.BlockedFused(a, phi, psi, NonNeg{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Data {
		if v < 0 {
			t.Fatalf("BF result infeasible: %g", v)
		}
	}
}

func TestL1InducesSparsity(t *testing.T) {
	_, phi, psi := randomProblem(3, 80, 6)
	dense0 := dense.NewMatrix(80, 6)
	s := NewSolver(Options{Tol: 1e-8, MaxIters: 300})
	if _, err := s.Baseline(dense0, phi, psi, Unconstrained{}); err != nil {
		t.Fatal(err)
	}
	sparse := dense.NewMatrix(80, 6)
	if _, err := s.Baseline(sparse, phi, psi, L1{Lambda: 5}); err != nil {
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
	_, phi, psi := randomProblem(4, 50, 4)
	dense.Scale(psi, 10, psi) // force large columns
	a := dense.NewMatrix(50, 4)
	s := NewSolver(Options{Tol: 1e-8, MaxIters: 300})
	cap := 2.0
	if _, err := s.Baseline(a, phi, psi, NonNegMaxColNorm{R: cap}); err != nil {
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
	NonNeg{}.Project(m, m, nil, nil, 1)
	if m.At(0, 0) != 0 || m.At(0, 1) != 2 || m.At(1, 1) != 0 {
		t.Fatalf("NonNeg projection wrong: %v", m)
	}
	// Idempotence.
	before := m.Clone()
	NonNeg{}.Project(m, m, nil, nil, 1)
	if !m.Equal(before, 0) {
		t.Fatal("NonNeg not idempotent")
	}

	l := dense.FromRows([][]float64{{-1, 0.05}, {0.3, -0.02}})
	L1{Lambda: 0.1}.Project(l, l, nil, nil, 1) // threshold = 0.1
	if l.At(0, 0) != -0.9 || l.At(0, 1) != 0 || math.Abs(l.At(1, 0)-0.2) > 1e-15 || l.At(1, 1) != 0 {
		t.Fatalf("L1 soft threshold wrong: %v", l)
	}

	c := dense.FromRows([][]float64{{3, -1}, {4, 2}})
	norms2 := []float64{25, 5} // col 0 norm 5 > cap 1
	NonNegMaxColNorm{R: 1}.Project(c, c, nil, norms2, 1)
	if math.Abs(c.At(0, 0)-3.0/5) > 1e-15 || c.At(0, 1) != 0 {
		t.Fatalf("col norm projection wrong: %v", c)
	}
}

func TestShapeErrors(t *testing.T) {
	s := NewSolver(Options{})
	a := dense.NewMatrix(5, 3)
	phi := dense.NewMatrix(3, 3)
	dense.AddScaledIdentity(phi, phi, 1)
	badPsi := dense.NewMatrix(4, 3)
	if _, err := s.Baseline(a, phi, badPsi, NonNeg{}); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := s.BlockedFused(a, dense.NewMatrix(3, 2), dense.NewMatrix(5, 3), NonNeg{}); err == nil {
		t.Fatal("expected non-square Φ error")
	}
}

func TestWarmStartConvergesFaster(t *testing.T) {
	aStar, phi, psi := randomProblem(7, 60, 5)
	cold := dense.NewMatrix(60, 5)
	s := NewSolver(Options{Tol: 1e-8, MaxIters: 500})
	stCold, err := s.Baseline(cold, phi, psi, Unconstrained{})
	if err != nil {
		t.Fatal(err)
	}
	warm := aStar.Clone() // start at the solution
	stWarm, err := s.Baseline(warm, phi, psi, Unconstrained{})
	if err != nil {
		t.Fatal(err)
	}
	if stWarm.Iters > stCold.Iters {
		t.Fatalf("warm start (%d iters) slower than cold (%d)", stWarm.Iters, stCold.Iters)
	}
}

func TestRhoFloor(t *testing.T) {
	zero := dense.NewMatrix(3, 3)
	if rho(zero) <= 0 {
		t.Fatal("rho must stay positive for zero Φ")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Tol != 1e-4 || o.MaxIters != 50 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

// Adaptive ρ (residual balancing) must still converge to the
// constrained solution and remain feasible; on problems where the
// default ρ is far off, it should not take more iterations than the
// fixed-ρ solver.
func TestAdaptiveRho(t *testing.T) {
	aStar, phi, _ := randomProblem(21, 60, 5)
	// Skew the problem so tr(Φ)/K is a poor penalty: scale Φ up, making
	// the default ρ huge relative to the data term.
	phiBig := phi.Clone()
	dense.Scale(phiBig, 1000, phiBig)
	psiBig := dense.NewMatrix(60, 5)
	dense.MulAB(psiBig, aStar, phiBig)

	fixed := NewSolver(Options{Tol: 1e-10, MaxIters: 400})
	aFixed := dense.NewMatrix(60, 5)
	stFixed, err := fixed.Baseline(aFixed, phiBig, psiBig, NonNeg{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := NewSolver(Options{Tol: 1e-10, MaxIters: 400, AdaptiveRho: true})
	aAdaptive := dense.NewMatrix(60, 5)
	stAdaptive, err := adaptive.Baseline(aAdaptive, phiBig, psiBig, NonNeg{})
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
