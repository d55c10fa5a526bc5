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

// chooseKernelsFrom fills d.kernels (one choice per mode) from an
// already-measured profile (ignored under forced policies) and reports
// which compiled layouts the slice needs. Under KernelAuto the
// selection is a pure function of (profile, rank, options) — the
// profile of the view the kernels will actually run over, so the cost
// model sees the remapped shape when the slice was remapped.
func (d *Decomposer) chooseKernelsFrom(n int, prof *perfmodel.SliceProfile) (needPlan, needCSF bool) {
	if cap(d.kernels) < n {
		d.kernels = make([]perfmodel.MTTKRPKind, n)
	}
	d.kernels = d.kernels[:n]
	policy, amort := d.opt.MTTKRPKernel, d.selectorAmortIters()
	for m := range d.kernels {
		if policy == KernelCSF || policy == KernelAuto &&
			d.sel.SelectMTTKRPEx(*prof, m, d.k, amort, prof.Sorted) == perfmodel.MTTKRPCSF {
			d.kernels[m], needCSF = perfmodel.MTTKRPCSF, true
		} else {
			d.kernels[m], needPlan = perfmodel.MTTKRPPlan, true
		}
	}
	return needPlan, needCSF
}

// chooseKernels profiles x (under Auto) and resolves the kernel table —
// the single-tensor path used by spCP-stream, forced policies, and the
// selection tests.
func (d *Decomposer) chooseKernels(x *sptensor.Tensor) (needPlan, needCSF bool) {
	if d.opt.MTTKRPKernel == KernelAuto {
		d.profiler.Profile(&d.prof, x)
	}
	return d.chooseKernelsFrom(x.NModes(), &d.prof)
}

// ensureEngine lazily creates the CSF engine on the Decomposer's pool.
func (d *Decomposer) ensureEngine() *csf.Engine {
	if d.csfEng == nil {
		d.csfEng = csf.NewEngineWithPool(d.opt.Workers, d.pool)
	}
	return d.csfEng
}

// compileKernels compiles the layouts the resolved kernel table needs
// over kx: CSF trees for the CSF modes (built eagerly so the cost lands
// in the Pre phase, not the first iteration) and the coordinate plan
// for the plan modes. Returns the plan (nil when no mode uses it).
// hintSorted passes the sorted-base claim to the CSF engine, unlocking
// its reduced-pass builds (the engine verifies the claim itself, so an
// optimistic hint is safe).
func (d *Decomposer) compileKernels(kx *sptensor.Tensor, needPlan, needCSF, hintSorted bool) *mttkrp.Plan {
	if needCSF {
		eng := d.ensureEngine()
		eng.Begin(kx)
		if hintSorted {
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
	if !needCSF {
		return d.mt.NewPlan(kx)
	}
	need := make([]bool, len(d.kernels))
	for m, kc := range d.kernels {
		need[m] = kc == perfmodel.MTTKRPPlan
	}
	return d.mt.NewPlanFor(kx, need)
}

// beginKernels resolves the kernel table for slice x and compiles the
// layouts it needs. Forced policies skip profiling, so the sorted-base
// hint is passed optimistically (slices arrive Coalesce-sorted in
// every production path; the engine's own verification catches the
// rest).
func (d *Decomposer) beginKernels(x *sptensor.Tensor) *mttkrp.Plan {
	auto := d.opt.MTTKRPKernel == KernelAuto
	needPlan, needCSF := d.chooseKernels(x)
	return d.compileKernels(x, needPlan, needCSF, !auto || d.prof.Sorted)
}

// beginKernelsLayout is beginKernels for the explicit path with the
// remap verdict in the loop. Remapping rides the Auto cost-model path
// (forced kernel policies pin the whole layout so kernel benchmarks
// stay apples-to-apples) and can be switched off via Options.Layout:
// profile the slice, ask the selector whether remapping pays off — a
// function of this slice alone — remap through the pooled remapper when
// it does, and select kernels over the profile of whichever view the
// inner loop will run on. Returns the compiled plan and the remapped
// view (nil when the slice runs in place).
func (d *Decomposer) beginKernelsLayout(x *sptensor.Tensor) (*mttkrp.Plan, *mttkrp.Remapped) {
	if d.opt.MTTKRPKernel != KernelAuto {
		d.lastRemapped = false
		return d.beginKernels(x), nil
	}
	d.profiler.Profile(&d.prof, x)
	d.lastRemapped = d.opt.Layout != LayoutOff &&
		d.sel.SelectRemap(d.prof, d.k, d.selectorAmortIters())
	if !d.lastRemapped {
		needPlan, needCSF := d.chooseKernelsFrom(x.NModes(), &d.prof)
		return d.compileKernels(x, needPlan, needCSF, d.prof.Sorted), nil
	}
	rm := d.remapper.Begin(x, nil)
	d.compactProfile(rm)
	needPlan, needCSF := d.chooseKernelsFrom(x.NModes(), &d.profNz)
	return d.compileKernels(rm.X, needPlan, needCSF, d.profNz.Sorted), rm
}

// compactProfile derives the remapped view's profile from the global
// one without a second counting pass: mode m's index space collapses
// to its nz-row count (every local row is nonzero by construction),
// nonzero counts and distinct-pair counts are invariant under the
// per-mode renumbering, and the ascending-id remapping preserves
// storage order.
func (d *Decomposer) compactProfile(rm *mttkrp.Remapped) {
	p := &d.profNz
	p.NNZ = d.prof.NNZ
	if cap(p.Modes) < len(d.prof.Modes) {
		p.Modes = make([]perfmodel.ModeProfile, len(d.prof.Modes))
	}
	p.Modes = p.Modes[:len(d.prof.Modes)]
	for m, mp := range d.prof.Modes {
		nz := len(rm.NZ[m])
		p.Modes[m] = perfmodel.ModeProfile{Dim: nz, NZRows: nz, TopRowFrac: mp.TopRowFrac}
	}
	p.Sorted = d.prof.Sorted
	p.Pair01 = d.prof.Pair01
}
