package core

// Inert residue of Optimized's former per-slice remap, of the
// plan-vs-CSF kernel selection (DESIGN §11) and of the fit switch
// Options.TrackFit — the fit is always computed, its ψ read off the last
// factor mode's MTTKRP, so it costs ‖X‖² alone: bench/ compiles against
// these names and may only be edited by a [benchmark] PR. Nothing reads
// the options; all of these leave with the next such PR (ROADMAP item 8).

// LayoutPolicy is ignored.
type LayoutPolicy int

// LayoutAuto and LayoutOff are ignored: both run every slice in place.
const (
	LayoutAuto LayoutPolicy = iota
	LayoutOff
)

// LastLayoutDecision always returns false, false: no slice is remapped.
func (d *Decomposer) LastLayoutDecision() (remapped, hotFirst bool) { return false, false }

// MTTKRPKernel is ignored: every slice runs the one kernel (kernels.go).
type MTTKRPKernel int

// KernelPlan is ignored, like the zero value.
const KernelPlan MTTKRPKernel = 1

// KernelSchedule appends the kernel of every mode of the last slice to
// dst: one 'P' (the compiled row-order copy) per mode after a resident
// slice, nothing after a streamed one or before the first slice.
func (d *Decomposer) KernelSchedule(dst []byte) []byte {
	if !d.kernel.FromTensor() {
		return dst
	}
	for range d.dims {
		dst = append(dst, 'P')
	}
	return dst
}
