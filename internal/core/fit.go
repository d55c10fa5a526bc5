package core

import (
	"fmt"
	"math"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// fit returns the fit 1 − ‖Xₜ − X̂ₜ‖_F/‖Xₜ‖_F of the current model
// X̂ₜ = [[A⁽¹⁾,…,A⁽ᴺ⁾; sₜ]] against a slice with ‖X‖² = xnorm2 and
// streaming-mode MTTKRP ψ over the current factors in fitPsi, entirely
// in sparse form:
//
//	‖X−X̂‖² = ‖X‖² − 2·⟨X, X̂⟩ + ‖X̂‖²
//	⟨X, X̂⟩  = sᵀ·ψ
//	‖X̂‖²    = sᵀ(⊛_v C⁽ᵛ⁾)s
//
// NaN for an empty slice. It overwrites scratch1 and fitTmp.
func (d *Decomposer) fit(xnorm2 float64) float64 {
	if xnorm2 == 0 {
		return math.NaN()
	}
	had := d.scratch1
	had.Fill(1)
	for m := range d.modes {
		dense.Hadamard(had, had, d.modes[m].c)
	}
	tmp := d.fitTmp
	dense.MulVec(tmp, had, d.s)
	model2 := dense.Dot(d.s, tmp)
	inner := dense.Dot(d.s, d.fitPsi)
	err2 := xnorm2 - 2*inner + model2
	if err2 < 0 {
		err2 = 0
	}
	return 1 - math.Sqrt(err2/xnorm2)
}

// FitOf evaluates the current model's fit 1 − ‖X−X̂‖_F/‖X‖_F against an
// arbitrary slice-shaped tensor using the latest temporal weights —
// e.g. to score a held-out or incoming slice before folding it in. Its
// ψ is a time-mode pass over the slice's nonzeros. Returns NaN for an
// empty slice.
func (d *Decomposer) FitOf(x *sptensor.Tensor) (float64, error) {
	if x == nil {
		return math.NaN(), fmt.Errorf("core: nil slice")
	}
	if err := d.checkDims(x.Dims); err != nil {
		return math.NaN(), err
	}
	d.mt.TimeMode(d.fitPsi, x, d.factors())
	return d.fit(x.Norm2()), nil
}
