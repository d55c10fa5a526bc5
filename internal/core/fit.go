package core

import (
	"fmt"
	"math"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// sliceFit computes the fit 1 − ‖Xₜ − X̂ₜ‖_F/‖Xₜ‖_F of the current model
// X̂ₜ = [[A⁽¹⁾,…,A⁽ᴺ⁾; sₜ]] against the slice, entirely in sparse form:
//
//	‖X−X̂‖² = ‖X‖² − 2·⟨X, X̂⟩ + ‖X̂‖²
//	⟨X, X̂⟩  = sᵀ·ψ with ψ the streaming-mode MTTKRP over current factors
//	‖X̂‖²    = sᵀ(⊛_v C⁽ᵛ⁾)s
func (d *Decomposer) sliceFit(x *sptensor.Tensor) float64 {
	xnorm2 := x.Norm2()
	if xnorm2 == 0 {
		return math.NaN()
	}
	psi := d.fitPsi
	d.mt.TimeMode(psi, x, d.a)
	return d.fitFrom(xnorm2, psi)
}

// fitFrom finishes the fit from ‖X‖² and ψ — the part sliceFit and
// streamedFit share. It overwrites scratch1 and fitTmp.
func (d *Decomposer) fitFrom(xnorm2 float64, psi []float64) float64 {
	had := d.scratch1
	had.Fill(1)
	for m := range d.c {
		dense.Hadamard(had, had, d.c[m])
	}
	tmp := d.fitTmp
	dense.MulVec(tmp, had, d.s)
	model2 := dense.Dot(d.s, tmp)
	inner := dense.Dot(d.s, psi)
	err2 := xnorm2 - 2*inner + model2
	if err2 < 0 {
		err2 = 0
	}
	return 1 - math.Sqrt(err2/xnorm2)
}

// FitOf evaluates the current model's fit 1 − ‖X−X̂‖_F/‖X‖_F against an
// arbitrary slice-shaped tensor using the latest temporal weights —
// e.g. to score a held-out or incoming slice before folding it in.
// Returns NaN for an empty slice.
func (d *Decomposer) FitOf(x *sptensor.Tensor) (float64, error) {
	if x == nil || x.NModes() != d.n {
		return math.NaN(), fmt.Errorf("core: FitOf slice has wrong mode count")
	}
	for m, dim := range x.Dims {
		if dim != d.dims[m] {
			return math.NaN(), fmt.Errorf("core: FitOf slice mode %d length %d ≠ %d", m, dim, d.dims[m])
		}
	}
	return d.sliceFit(x), nil
}
