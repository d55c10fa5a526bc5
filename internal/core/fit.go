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
//
// For the slice just solved ψ is what the last sₜ refresh left in fitPsi
// (psiFresh); any other slice costs a pass over its nonzeros. It
// overwrites scratch1, fitPsi and fitTmp. A resident slice cannot fail; a
// streamed one reports its decode errors.
func (d *Decomposer) sliceFit(in sliceData) (float64, error) {
	xnorm2, err := d.norm2(in)
	if err != nil || xnorm2 == 0 {
		return math.NaN(), err
	}
	psi := d.fitPsi
	if !d.psiFresh {
		if err := d.mttkrpTime(psi, in, d.cur.a); err != nil {
			return math.NaN(), err
		}
	}
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
	return 1 - math.Sqrt(err2/xnorm2), nil
}

// FitOf evaluates the current model's fit 1 − ‖X−X̂‖_F/‖X‖_F against an
// arbitrary slice-shaped tensor using the latest temporal weights —
// e.g. to score a held-out or incoming slice before folding it in.
// Returns NaN for an empty slice.
func (d *Decomposer) FitOf(x *sptensor.Tensor) (float64, error) {
	if x == nil {
		return math.NaN(), fmt.Errorf("core: nil slice")
	}
	if err := d.checkDims(x.Dims); err != nil {
		return math.NaN(), err
	}
	return d.sliceFit(sliceData{x: x})
}
