package core

// Inert residue of the explicit body's per-slice remap, which is gone
// (DESIGN §11, "Row sparsity has one owner"): bench/ compiles against
// these names and may only be edited by a [benchmark] PR. Nothing reads
// any of them; all four leave with the next such PR (ROADMAP item 8).

// LayoutPolicy is ignored.
type LayoutPolicy int

// LayoutAuto and LayoutOff are ignored: both run every slice in place.
const (
	LayoutAuto LayoutPolicy = iota
	LayoutOff
)

// LastLayoutDecision always returns false, false: no slice is remapped.
func (d *Decomposer) LastLayoutDecision() (remapped, hotFirst bool) { return false, false }
