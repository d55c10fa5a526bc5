package mttkrp

import (
	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// The names bench/ compiles against from before the one Kernel, kept as
// thin wrappers of it: bench/ may only be edited by a [benchmark] PR.
// Nothing else calls them; they leave with the next such PR (ROADMAP
// item 8b).

// Plan is a Kernel compiled over one resident tensor.
type Plan = Kernel

// NewPlan returns a kernel on c compiled over x (Kernel.Compile).
func (c *Computer) NewPlan(x *sptensor.Tensor) *Plan {
	p := NewKernel(c)
	p.Compile(x)
	return p
}

// PlanMTTKRP is plan.MTTKRP, which cannot fail on a compiled tensor.
func (c *Computer) PlanMTTKRP(out *dense.Matrix, plan *Plan, factors []*dense.Matrix, mode int) {
	if err := plan.MTTKRP(out, factors, mode); err != nil {
		panic(err)
	}
}

// StreamKernel is a Kernel whose MTTKRP names its source and compiles
// for it first unless the kernel holds it already.
type StreamKernel struct{ Kernel }

// NewStreamKernel returns a StreamKernel on c with no share.
func NewStreamKernel(c *Computer) *StreamKernel { return &StreamKernel{Kernel{c: c}} }

// MTTKRP is Kernel.MTTKRP over src.
func (s *StreamKernel) MTTKRP(out *dense.Matrix, src sptensor.BlockSource, factors []*dense.Matrix, mode int) error {
	if !s.Holds(src) {
		if err := s.Begin(src); err != nil {
			return err
		}
	}
	return s.Kernel.MTTKRP(out, factors, mode)
}
