package core

import (
	"fmt"

	"spstream/internal/csf"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
)

// This file threads the MTTKRP kernel policy through the slice
// lifecycle. At every slice begin, chooseKernels resolves the policy
// (Options.MTTKRPKernel, adjustable between slices via
// SetMTTKRPKernel) into one concrete kernel per mode; the iterate
// phases dispatch on that table. Under KernelAuto the perfmodel
// selector compares the predicted cost of the compiled coordinate plan
// against the tiled CSF engine per mode, using the measured slice shape
// — a pure function of (slice, options), so checkpoint-restored and
// retried slices reproduce the original kernel schedule exactly.

// sliceData is one time slice's sparse data: resident (x) or streamed
// out of core (src) — exactly one is set. The driver and both algorithm
// bodies pass it around opaquely; beyond the explicit body's begin, only
// mttkrpMode, mttkrpTime and norm2 below look at which it is, so a
// streamed slice is an input to the one slice driver rather than a driver
// of its own.
type sliceData struct {
	x   *sptensor.Tensor
	src sptensor.BlockSource
}

func (in sliceData) dims() []int {
	if in.src != nil {
		return in.src.Dims()
	}
	return in.x.Dims
}

func (in sliceData) nnz() int {
	if in.src != nil {
		return in.src.NNZ()
	}
	return in.x.NNZ()
}

// scan is the guarded path's input scan.
func (in sliceData) scan() error {
	if in.src != nil {
		return scanBlockInput(in.src)
	}
	return scanSliceInput(in.x)
}

// mttkrpMode computes out = MTTKRP(in, factors, n): streamed over the
// blocks when the slice is a source (bit-identical to the compiled plan
// on their concatenation, for any worker count), else by the kernel the
// table resolved for mode n — the plan compiled over in.x or the CSF
// engine's trees (begun on in.x).
func (d *Decomposer) mttkrpMode(out *dense.Matrix, in sliceData, plan *mttkrp.Plan, factors []*dense.Matrix, n int) error {
	if in.src != nil {
		if err := d.streamKernel().MTTKRP(out, in.src, factors, n); err != nil {
			return fmt.Errorf("core: mode %d streamed MTTKRP: %w", n, err)
		}
		return nil
	}
	if d.kernels[n] == perfmodel.MTTKRPCSF {
		d.csfEng.MTTKRP(out, factors, n)
	} else {
		d.mt.PlanMTTKRP(out, plan, factors, n)
	}
	return nil
}

// mttkrpTime computes the streaming-mode (time) MTTKRP dst over in, a
// pass over the nonzeros: the warm-start sₜ and FitOf. The streamed
// kernel is bit for bit the in-memory thread-local reduction.
func (d *Decomposer) mttkrpTime(dst []float64, in sliceData, factors []*dense.Matrix) error {
	if in.src == nil {
		d.mt.TimeMode(dst, in.x, factors)
		return nil
	}
	if err := d.streamKernel().TimeMode(dst, in.src, factors); err != nil {
		return fmt.Errorf("core: streamed time-mode MTTKRP: %w", err)
	}
	return nil
}

// norm2 returns ‖X‖² of the slice. A source's was summed block by block
// by the pass that compiled its schedule — the same left-to-right
// summation Norm2 performs on the materialized concatenation.
func (d *Decomposer) norm2(in sliceData) (float64, error) {
	if in.src == nil {
		return in.x.Norm2(), nil
	}
	sum, err := d.streamKernel().Norm2(in.src)
	if err != nil {
		return 0, fmt.Errorf("core: streamed ‖X‖²: %w", err)
	}
	return sum, nil
}

// selectorAmortIters is the inner-iteration count the per-slice build
// cost is amortized over in Auto selection: MaxIters capped low, so a
// stream that converges quickly is not charged for builds it would
// never amortize. Deliberately conservative — underestimating the
// iteration count biases toward the cheaper-to-build plan.
func (d *Decomposer) selectorAmortIters() int {
	it := d.opt.MaxIters
	if it > 8 {
		it = 8
	}
	return it
}

// chooseKernels profiles x (under Auto) and fills d.kernels (one choice
// per mode), reporting which compiled layouts the slice needs. Under
// KernelAuto the selection is a pure function of (profile, rank,
// options); forced policies skip the profile.
func (d *Decomposer) chooseKernels(x *sptensor.Tensor) (needPlan, needCSF bool) {
	policy, amort := d.opt.MTTKRPKernel, d.selectorAmortIters()
	if policy == KernelAuto {
		d.profiler.Profile(&d.prof, x)
	}
	n := x.NModes()
	if cap(d.kernels) < n {
		d.kernels = make([]perfmodel.MTTKRPKind, n)
	}
	d.kernels = d.kernels[:n]
	for m := range d.kernels {
		if policy == KernelCSF || policy == KernelAuto &&
			d.sel.SelectMTTKRPEx(d.prof, m, d.k, amort, d.prof.Sorted) == perfmodel.MTTKRPCSF {
			d.kernels[m], needCSF = perfmodel.MTTKRPCSF, true
		} else {
			d.kernels[m], needPlan = perfmodel.MTTKRPPlan, true
		}
	}
	return needPlan, needCSF
}

// ensureEngine lazily creates the CSF engine on the Decomposer's pool.
func (d *Decomposer) ensureEngine() *csf.Engine {
	if d.csfEng == nil {
		d.csfEng = csf.NewEngineWithPool(d.opt.Workers, d.pool)
	}
	return d.csfEng
}

// beginKernels resolves the kernel table for slice x and compiles the
// layouts it needs: CSF trees for the CSF modes (built eagerly so the
// cost lands in the Pre phase, not the first iteration) and the
// coordinate plan for the plan modes, recompiled into the Decomposer's
// one grow-only Plan. Returns the plan (nil when no mode uses it). The
// sorted-base claim unlocks the CSF engine's reduced-pass builds; forced
// policies skip profiling, so it is passed optimistically (slices arrive
// Coalesce-sorted in every production path, and the engine verifies the
// claim itself).
func (d *Decomposer) beginKernels(x *sptensor.Tensor) *mttkrp.Plan {
	needPlan, needCSF := d.chooseKernels(x)
	if needCSF {
		eng := d.ensureEngine()
		eng.Begin(x)
		if d.opt.MTTKRPKernel != KernelAuto || d.prof.Sorted {
			eng.SetSortedBase()
		}
		for m, kc := range d.kernels {
			if kc == perfmodel.MTTKRPCSF {
				eng.Build(m)
			}
		}
	}
	if !needPlan {
		return nil
	}
	var need []bool
	if needCSF {
		d.planNeed = d.planNeed[:0]
		for _, kc := range d.kernels {
			d.planNeed = append(d.planNeed, kc == perfmodel.MTTKRPPlan)
		}
		need = d.planNeed
	}
	d.plan = d.mt.CompilePlan(d.plan, x, need)
	return d.plan
}
