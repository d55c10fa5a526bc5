package core

// Inert residue of the explicit body's per-slice remap and of the
// plan-vs-CSF kernel selection, both gone (DESIGN §11): bench/ compiles
// against these names and may only be edited by a [benchmark] PR.
// Nothing reads the options; all of these leave with the next such PR
// (ROADMAP item 8).

// LayoutPolicy is ignored.
type LayoutPolicy int

// LayoutAuto and LayoutOff are ignored: both run every slice in place.
const (
	LayoutAuto LayoutPolicy = iota
	LayoutOff
)

// LastLayoutDecision always returns false, false: no slice is remapped.
func (d *Decomposer) LastLayoutDecision() (remapped, hotFirst bool) { return false, false }

// MTTKRPKernel is ignored: every resident slice runs the compiled plan
// (kernels.go).
type MTTKRPKernel int

// KernelPlan is ignored, like the zero value.
const KernelPlan MTTKRPKernel = 1

// KernelSchedule appends the kernel of every mode of the last slice to
// dst: one 'P' (plan) per mode after a resident slice, nothing after a
// streamed one or before the first slice.
func (d *Decomposer) KernelSchedule(dst []byte) []byte {
	if !d.resident {
		return dst
	}
	for range d.dims {
		dst = append(dst, 'P')
	}
	return dst
}
