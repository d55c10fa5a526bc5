package core

import (
	"fmt"

	"spstream/internal/perfmodel"
)

// This file is the runtime tuning surface the lag-aware degradation
// controller (internal/ingest) drives: the knobs that trade model
// quality for per-slice throughput while a stream is live. All of them
// may only be called between slices (the Decomposer is not safe for
// concurrent use), which is exactly when the controller runs — after
// one ProcessSliceContext returns and before the next begins.

// MaxIters returns the current inner (per-slice) iteration bound.
func (d *Decomposer) MaxIters() int { return d.opt.MaxIters }

// SetMaxIters adjusts the inner iteration bound for subsequent slices
// (floor 1). Fewer inner iterations is the cheapest quality/throughput
// trade: the factors take smaller steps per slice but the model stays
// well-defined.
func (d *Decomposer) SetMaxIters(n int) {
	if n < 1 {
		n = 1
	}
	d.opt.MaxIters = n
}

// ADMMMaxIters returns the inner ADMM iteration bound (constrained
// runs).
func (d *Decomposer) ADMMMaxIters() int { return d.solver.Options().MaxIters }

// SetADMMMaxIters adjusts the ADMM inner-loop bound for subsequent
// solves (floor 1).
func (d *Decomposer) SetADMMMaxIters(n int) { d.solver.SetMaxIters(n) }

// Algorithm returns the solver variant currently in use.
func (d *Decomposer) Algorithm() Algorithm { return d.opt.Algorithm }

// SetAlgorithm switches the solver variant between slices. The two
// variants share the explicit factor/Gram state that crosses slice
// boundaries (finishSpCP materializes A = A_z ⊕ A_nz every slice), so
// the switch is exact: the next slice simply runs the other body. The
// spCP-stream incremental C_z bookkeeping is invalidated by any switch
// and by any slice the explicit body finishes — a streamed slice under
// spCP-stream included (prevNZ would name rows the Gram form did not
// track) — so the next spCP slice recomputes C_z,t−1 from scratch: one
// extra Gram pass, after which incremental maintenance resumes.
//
// The same constraint-compatibility rules as construction apply
// (spCP-stream rejects constraints unless ConstrainedSpCP is set);
// incompatible switches return an error and leave the decomposer
// unchanged.
func (d *Decomposer) SetAlgorithm(a Algorithm) error {
	if a == d.opt.Algorithm {
		return nil
	}
	trial := d.opt
	trial.Algorithm = a
	if err := trial.Validate(d.dims); err != nil {
		return err
	}
	d.opt.Algorithm = a
	d.prevNZ = nil
	return nil
}

// MTTKRPKernel returns the current factor-mode MTTKRP kernel policy.
func (d *Decomposer) MTTKRPKernel() MTTKRPKernel { return d.opt.MTTKRPKernel }

// SetMTTKRPKernel overrides the MTTKRP kernel policy for subsequent
// slices: KernelAuto is the cost-model selection, KernelPlan/KernelCSF
// force one kernel. The switch is exact: every kernel computes the same
// MTTKRP, only its schedule (and hence rounding order) differs, and the
// table is re-resolved at the next slice begin. Unknown values return an
// error and leave the policy unchanged.
func (d *Decomposer) SetMTTKRPKernel(k MTTKRPKernel) error {
	if k < KernelAuto || k > KernelCSF {
		return fmt.Errorf("core: unknown MTTKRPKernel %d", int(k))
	}
	d.opt.MTTKRPKernel = k
	return nil
}

// KernelSchedule appends the current per-mode kernel table (resolved
// at the last slice begin) to dst as one letter per mode — "P"lan or
// "C"SF — the compact schedule string the determinism tests compare
// across checkpoint restores.
func (d *Decomposer) KernelSchedule(dst []byte) []byte {
	for _, kc := range d.kernels {
		if kc == perfmodel.MTTKRPCSF {
			dst = append(dst, 'C')
		} else {
			dst = append(dst, 'P')
		}
	}
	return dst
}
