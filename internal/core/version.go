package core

import (
	"sync/atomic"

	"spstream/internal/dense"
	"spstream/internal/parallel"
)

// zLogLen bounds the lazy z side: a version's rows may lag the slice
// counter by at most zLogLen−1 final transforms; the spCP slice that
// would log the zLogLen-th flushes instead (finishZ).
const zLogLen = 16

// Version is one copy of the factor storage, A⁽¹⁾…A⁽ᴺ⁾. The Decomposer
// keeps the committed one, cur, and a retired one, spare, that a slice
// writes A_t into while it reads A_{t−1} from cur; commit is a pointer
// swap. So the committed version is never written while anyone pins it,
// and the rollback point of a guarded slice, a published serve snapshot
// and every reader share it instead of copying it.
//
// The z side is lazy. An spCP slice changes the rows no nonzero touched
// only by its final transform T (row ← row·T, Eq. 6), so instead of
// rewriting them a version logs the transforms: lag is the number of
// slices since its last flush, and each mode's record (modeRows) dates
// its stored rows against it. Row applies the log; a row of age lag is
// stored current. Only the rows a slice touches are written, and a
// flush (every zLogLen slices, and before a slice that reads every row)
// brings them all current and empties the log.
//
// The pin count is the only synchronization. The Decomposer writes a
// version only when nothing pins it, and allocates a fresh one when the
// spare is pinned, so a pin never stalls a slice and never changes a
// bit; one that is never released costs one allocation.
type Version struct {
	modes []modeRows
	lag   int
	// Lineage, for bringing a spare level cheaply: id names the contents
	// (0: unknown, mid-write), and base is the id of the contents this
	// version held before its last write, which changed only each mode's
	// nz rows if wroteNZ, else every row.
	id, base uint64
	wroteNZ  bool
	pins     atomic.Int64
}

// modeRows is one mode's share of a Version: the stored Iₙ×K factor a;
// age[i], the slice (counted from the last flush) that last wrote stored
// row i; log[e] = T_{e+1}···T_lag, the suffix product that brings a row
// of age e current; and nz, the rows the version's last spCP write
// touched (storage reused across writes).
type modeRows struct {
	a   *dense.Matrix
	age []uint8
	log []*dense.Matrix
	nz  []int32
}

// Row writes row i of mode n, brought current, into dst (len K) and
// returns it: O(K²), or a copy when the stored row is current.
func (v *Version) Row(n, i int, dst []float64) []float64 {
	r := &v.modes[n]
	src := r.a.Row(i)
	if e := int(r.age[i]); e < v.lag {
		clear(dst)
		dense.AddMulRow(dst, src, r.log[e])
	} else {
		copy(dst, src)
	}
	return dst
}

// Factor returns mode n's factor in this version (do not modify it):
// the stored matrix itself when every row is current, else a new copy
// brought current.
func (v *Version) Factor(n int) *dense.Matrix {
	a := v.modes[n].a
	if v.lag == 0 {
		return a
	}
	f := dense.NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		v.Row(n, i, f.Row(i))
	}
	return f
}

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
	v := &Version{modes: make([]modeRows, d.n)}
	for m, dim := range d.dims {
		v.modes[m] = modeRows{a: dense.NewMatrix(dim, d.k), age: make([]uint8, dim)}
	}
	return v
}

// growLog gives every mode's log room for lag suffix products. They are
// allocated on first use, so a version that never logs (z = ∅) holds
// none.
func (v *Version) growLog(lag int) {
	for m := range v.modes {
		r := &v.modes[m]
		for len(r.log) < lag {
			r.log = append(r.log, dense.NewMatrix(r.a.Cols, r.a.Cols))
		}
	}
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

// beginWrite marks v as being rewritten from the contents it holds,
// changing only each mode's nz rows if nzOnly, else every row; endWrite
// names the new contents. A write cut short leaves v's contents unknown
// (id 0), so the next level copies it whole.
func (d *Decomposer) beginWrite(v *Version, nzOnly bool) {
	v.base, v.id = v.id, 0
	v.wroteNZ = nzOnly
}

func (d *Decomposer) endWrite(v *Version) {
	d.ids++
	v.id = d.ids
}

// writable returns the version a slice writes its z-set result into:
// the committed one when nothing pins it, else the spare brought level
// with it — by copying only the rows the committed version's last write
// changed when the spare holds the contents that write started from
// (the alternating pair of a served stream), else every row.
func (d *Decomposer) writable() *Version {
	from := d.cur
	if !from.pinned() {
		return from
	}
	v := d.claimSpare()
	if v.id != 0 && v.id == from.id {
		return v
	}
	partial := v.id != 0 && v.id == from.base && from.wroteNZ
	v.growLog(from.lag)
	for m := range from.modes {
		src, dst := &from.modes[m], &v.modes[m]
		if partial {
			for _, i := range src.nz {
				copy(dst.a.Row(int(i)), src.a.Row(int(i)))
				dst.age[i] = src.age[i]
			}
		} else {
			dst.a.CopyFrom(src.a)
			copy(dst.age, src.age)
		}
		for e := 0; e < from.lag; e++ {
			dst.log[e].CopyFrom(src.log[e])
		}
	}
	v.lag, v.id = from.lag, from.id
	return v
}

// setCurrent records that every stored row of v is current: all ages
// and the lag 0, the log empty.
func (v *Version) setCurrent() {
	for m := range v.modes {
		clear(v.modes[m].age)
	}
	v.lag = 0
}

// flush writes every row of src, brought current, into dst (which may
// be src) on the pool, and empties dst's log: O(ΣIₙ·K²), so it runs once
// per zLogLen spCP slices and before a slice with z = ∅. Each row is
// transformed on its own, so no bit depends on the partition.
func (d *Decomposer) flush(dst, src *Version) {
	d.beginWrite(dst, false)
	for w := len(d.zRows); w < d.opt.Workers; w++ {
		d.zRows = append(d.zRows, *dense.NewMatrix(1, d.k))
	}
	for m := range dst.modes {
		a := dst.modes[m].a
		for _, e := range src.modes[m].age {
			if int(e) < src.lag {
				d.zRowsRead++
			}
		}
		d.pargs = coreArgs{a: a, ver: src, mode: m, rows: d.zRows}
		d.pool.Do(a.Rows, d.opt.Workers, &d.pargs, flushBody)
	}
	d.pargs = coreArgs{}
	dst.setCurrent()
	d.endWrite(dst)
}

func flushBody(ctx any, w int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	tmp := pa.rows[w].Data
	for i := r.Lo; i < r.Hi; i++ {
		copy(pa.a.Row(i), pa.ver.Row(pa.mode, i, tmp))
	}
}

// flushCommitted brings every row of the committed version current, for
// a slice that reads all of A_{t−1}: in place when nothing pins it, else
// into the spare, which it then commits — the same contents.
func (d *Decomposer) flushCommitted() {
	if d.cur.lag == 0 {
		return
	}
	v := d.cur
	if v.pinned() {
		v = d.claimSpare()
	}
	d.flush(v, d.cur)
	d.commit(v)
}

// Factor returns the committed factor matrix for mode n (do not modify
// it): Committed().Factor(n), the copy a lagging z side needs kept for
// later calls until the next slice begins and drops it — it is never
// rewritten. Either is valid until the next slice begins, unless the
// Committed version is pinned.
func (d *Decomposer) Factor(n int) *dense.Matrix {
	v := d.cur
	if v.lag == 0 {
		return v.modes[n].a
	}
	md := &d.modes[n]
	if md.view == nil || md.viewID != v.id {
		md.view, md.viewID = v.Factor(n), v.id
	}
	return md.view
}

// factors returns every mode's Factor.
func (d *Decomposer) factors() []*dense.Matrix {
	f := make([]*dense.Matrix, d.n)
	for m := range f {
		f[m] = d.Factor(m)
	}
	return f
}
