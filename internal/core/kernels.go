package core

import (
	"fmt"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/sptensor"
)

// This file holds the slice's sparse kernels. A resident slice runs one
// MTTKRP kernel on every mode: the coordinate plan (mttkrp.Plan), which
// beginKernels compiles once per slice — a row-ordered copy of the slice
// per mode, read front to back by a contention-free row-owner
// reduction. A streamed slice runs the plan's streamed twin
// (mttkrp.StreamKernel). Both are bit-identical at any worker count.

// sliceData is one time slice's sparse data: resident (x) or streamed
// out of core (src) — exactly one is set. The driver and the slice body
// pass it around opaquely; beyond beginSlice (which gives a streamed
// slice the empty z set and the streamed kernel's schedule), only
// mttkrpMode and norm2 below look at which it is, so a
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
// on their concatenation, for any worker count), else by the plan
// compiled over in.x.
func (d *Decomposer) mttkrpMode(out *dense.Matrix, in sliceData, plan *mttkrp.Plan, factors []*dense.Matrix, n int) error {
	if in.src != nil {
		if err := d.streamKernel().MTTKRP(out, in.src, factors, n); err != nil {
			return fmt.Errorf("core: mode %d streamed MTTKRP: %w", n, err)
		}
		return nil
	}
	d.mt.PlanMTTKRP(out, plan, factors, n)
	return nil
}

// norm2 returns ‖X‖² of the slice, for its fit. A source's was summed
// block by block by the pass that compiled its schedule — the same
// left-to-right summation Norm2 performs on the materialized
// concatenation.
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

// beginKernels compiles the plan for slice x into the Decomposer's one
// grow-only Plan (the compile cost lands in the Pre phase, not the first
// iteration) and returns it.
func (d *Decomposer) beginKernels(x *sptensor.Tensor) *mttkrp.Plan {
	d.plan = d.mt.CompilePlan(d.plan, x)
	d.resident = true
	return d.plan
}
