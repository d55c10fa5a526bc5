package admm

import (
	"testing"

	"spstream/internal/dense"
	"spstream/internal/synth"
)

// RandomProblem is randomProblem for the external tests, which run the
// paper's Algorithm 2 (baselines.ADMM) beside BlockedFused.
var RandomProblem = randomProblem

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

func TestRelConverged(t *testing.T) {
	if !relConverged(0, 0, 1e-4) {
		t.Fatal("zero numerator must converge")
	}
	if relConverged(1, 0, 1e-4) {
		t.Fatal("positive/zero must not converge")
	}
	if !relConverged(1e-9, 1, 1e-4) {
		t.Fatal("small ratio must converge")
	}
}
