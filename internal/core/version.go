package core

import (
	"sync/atomic"

	"spstream/internal/dense"
)

// Version is one copy of the factor storage, A⁽¹⁾…A⁽ᴺ⁾. The Decomposer
// keeps the committed one, cur, and a retired one, spare, that a slice
// writes A_t into while it reads A_{t−1} from cur; commit is a pointer
// swap. So the committed version is never written while anyone pins it,
// and the rollback point of a guarded slice, a published serve snapshot
// and every reader share it instead of copying it.
//
// The pin count is the only synchronization. The Decomposer writes a
// version only when nothing pins it, and allocates a fresh one when the
// spare is pinned, so a pin never stalls a slice and never changes a
// bit; one that is never released costs one allocation.
type Version struct {
	a    []*dense.Matrix
	pins atomic.Int64
}

// Factor returns mode n's factor in this version (do not modify it).
func (v *Version) Factor(n int) *dense.Matrix { return v.a[n] }

// Pin keeps the Decomposer from writing v until the matching Release.
// Pin the committed version on the goroutine driving the Decomposer,
// between slices; any goroutine may pin a version it reached through a
// pin it already holds, or re-check afterwards that the version is still
// the one it meant to pin (the serve snapshot's load–pin–recheck).
func (v *Version) Pin() { v.pins.Add(1) }

// Release drops one Pin.
func (v *Version) Release() {
	if v.pins.Add(-1) < 0 {
		panic("core: Version released more often than pinned")
	}
}

func (v *Version) pinned() bool { return v.pins.Load() != 0 }

// Committed returns the committed version: the factors Factor reads.
// It stays unwritten through the next slice only if pinned.
func (d *Decomposer) Committed() *Version { return d.cur }

func (d *Decomposer) newVersion() *Version {
	v := &Version{a: make([]*dense.Matrix, d.n)}
	for m, dim := range d.dims {
		v.a[m] = dense.NewMatrix(dim, d.k)
	}
	return v
}

// claimSpare returns d.spare, made writable: the spare itself when
// nothing pins it; else the parked version — a spare that was pinned
// when last due — once it is free again, parking the pinned spare in
// its place; else a fresh version, parking the pinned spare over any
// parked one. A free spare is dropped when the parked one is reused, so
// past the transient of a held reader the Decomposer is back to two
// versions.
func (d *Decomposer) claimSpare() *Version {
	if p := d.parked; p != nil && !p.pinned() {
		d.parked = nil
		if d.spare != nil && d.spare.pinned() {
			d.parked = d.spare
		}
		d.spare = p
	}
	if d.spare == nil || d.spare.pinned() {
		if d.spare != nil {
			d.parked = d.spare
		}
		d.spare = d.newVersion()
	}
	return d.spare
}

// commit makes v, the version a slice or a restore wrote, the committed
// one: a pointer swap, the old committed version becoming the spare. A
// v that is already committed (a slice that wrote in place) stays so.
func (d *Decomposer) commit(v *Version) {
	if v != d.cur {
		d.spare, d.cur = d.cur, v
	}
}
