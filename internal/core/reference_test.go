package core

import (
	"testing"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// TestExplicitMatchesDenseReference validates one full slice update of
// the explicit algorithm against a brute-force dense implementation of
// the textbook formulation: factor matrices updated mode by mode via
//
//	Zₙ = (⊙_{v≠n} A⁽ᵛ⁾)·diag(sₜ)   (Khatri-Rao with the time row)
//	A⁽ⁿ⁾ = X₍ₙ₎·Zₙ·(ZₙᵀZₙ + ridge·I)⁻¹
//
// on the first slice (G₀ = 0, so the historical term vanishes for any
// µ) with a single inner iteration, replicating the solver's exact
// update order (sₜ warm start → modes in order → sₜ refresh). Everything on the reference side goes through dense
// matricization — no MTTKRP, no Hadamard shortcut identities — so any
// wiring bug in Ψ/Φ construction or the sₜ column scaling shows up.
func TestExplicitMatchesDenseReference(t *testing.T) {
	dims := []int{4, 3, 5}
	const k = 2
	x := referenceSlice(t, dims)

	opt := Options{
		Rank:      k,
		Algorithm: Optimized,
		MaxIters:  1,
		Tol:       1e-30,
		Seed:      7,
		Workers:   1,
	}
	d, err := NewDecomposer(dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the initial factors for the reference before the solver
	// mutates them.
	init := make([]*dense.Matrix, len(dims))
	for m := range dims {
		init[m] = d.Factor(m).Clone()
	}
	if _, err := d.ProcessSlice(x); err != nil {
		t.Fatal(err)
	}

	// --- dense reference ---------------------------------------------
	a := make([]*dense.Matrix, len(dims))
	for m := range init {
		a[m] = init[m].Clone()
	}
	xvec, err := sptensor.ToDenseVector(x)
	if err != nil {
		t.Fatal(err)
	}
	solveS := func() []float64 {
		// ψ = (⊙ all factors)ᵀ·vec(X); Φs = ZᵀZ + λI.
		z := dense.KhatriRaoAll(a)
		psi := make([]float64, k)
		dense.MulVecT(psi, z, xvec)
		phiS := dense.NewMatrix(k, k)
		dense.Gram(phiS, z)
		dense.AddScaledIdentity(phiS, phiS, opt.WithDefaults().StreamRidge)
		chol, err := dense.Factor(phiS)
		if err != nil {
			t.Fatal(err)
		}
		chol.SolveVec(psi)
		return psi
	}
	s := solveS()
	for n := range dims {
		// Zₙ over the other modes, columns scaled by sₜ.
		others := make([]*dense.Matrix, 0, len(dims)-1)
		for v := range dims {
			if v != n {
				others = append(others, a[v])
			}
		}
		z := dense.KhatriRaoAll(others)
		dense.ScaleColumns(z, z, s)
		xn, err := sptensor.Matricize(x, n)
		if err != nil {
			t.Fatal(err)
		}
		psi := dense.NewMatrix(dims[n], k)
		dense.MulAB(psi, xn, z)
		phi := dense.NewMatrix(k, k)
		dense.Gram(phi, z)
		// Same relative ridge the solver applies (µG = 0 on slice 1).
		ridge := opt.WithDefaults().FactorRidgeRel * dense.Trace(phi) / float64(k)
		chol, err := dense.FactorRidge(phi, ridge)
		if err != nil {
			t.Fatal(err)
		}
		chol.SolveRowsInto(a[n], psi)
	}
	sFinal := solveS()

	for m := range dims {
		if diff := a[m].MaxAbsDiff(d.Factor(m)); diff > 1e-6 {
			t.Fatalf("mode %d: solver differs from dense reference by %g", m, diff)
		}
	}
	for j := range sFinal {
		got := d.LastS()[j]
		if diff := sFinal[j] - got; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("sₜ[%d]: solver %g vs reference %g", j, got, sFinal[j])
		}
	}
}

// referenceSlice builds a small dense-ish random slice.
func referenceSlice(t *testing.T, dims []int) *sptensor.Tensor {
	t.Helper()
	r := synth.NewRNG(99)
	x := sptensor.New(dims...)
	coord := make([]int32, len(dims))
	for e := 0; e < 40; e++ {
		for m, dim := range dims {
			coord[m] = int32(r.Intn(dim))
		}
		x.Append(coord, r.NormFloat64()+2)
	}
	x.Coalesce()
	return x
}

// TestTinyMuAllowed: a near-zero forgetting factor (pure per-slice ALS,
// essentially no history) must stay numerically stable.
func TestTinyMuAllowed(t *testing.T) {
	d, err := NewDecomposer([]int{6, 7}, Options{Rank: 2, Mu: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := sptensor.New(6, 7)
	x.Append([]int32{1, 2}, 1)
	x.Append([]int32{3, 4}, 2)
	for i := 0; i < 3; i++ {
		if _, err := d.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	if d.Factor(0).HasNaN() {
		t.Fatal("NaN with tiny µ")
	}
}
