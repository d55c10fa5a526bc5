package core

import (
	"fmt"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// Every slice runs one MTTKRP kernel on every mode, the Decomposer's
// grow-only mttkrp.Kernel, compiled once per slice in the Pre phase: a
// resident slice as a one-block source that is wholly resident — a
// row-ordered copy per mode, read front to back by a contention-free
// row-owner reduction — and a streamed one as far as Options.MemBudget
// has room. Either is bit-identical to Sequential at any worker count.

// sliceData is one time slice's sparse data: resident (x) or streamed
// out of core (src) — exactly one is set. Beyond the compile and the
// guarded input scan below, only beginSlice looks at which it is (a
// streamed slice gets the empty z set), so a streamed slice is an input
// to the one slice driver rather than a driver of its own.
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

// compile makes kin what the kernel's passes read: a resident tensor by
// Compile, a source by Begin under the streaming share — unless the
// guarded input scan compiled it already.
func (d *Decomposer) compile(kin sliceData) error {
	switch {
	case kin.src == nil:
		d.kernel.Compile(kin.x)
	case !d.kernel.Holds(kin.src):
		return d.kernel.Begin(kin.src)
	}
	return nil
}

// scan is the guarded path's input scan. A source's is the compile
// itself, which checks every block on the decode it makes anyway, so
// beginSlice finds the kernel compiled; a rejected source is dropped.
func (d *Decomposer) scan(in sliceData) error {
	if in.src == nil {
		return in.x.ValidateFinite()
	}
	if d.compile(in) != nil || d.kernel.ScanErr() != nil {
		d.kernel.End()
	}
	return d.kernel.ScanErr()
}

// mttkrpMode computes out = MTTKRP(X, factors, n) over the compiled
// slice.
func (d *Decomposer) mttkrpMode(out *dense.Matrix, factors []*dense.Matrix, n int) error {
	if err := d.kernel.MTTKRP(out, factors, n); err != nil {
		return fmt.Errorf("core: mode %d MTTKRP: %w", n, err)
	}
	return nil
}
