package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"spstream/internal/dense"
)

// Checkpointing: a Decomposer's streaming state can be serialized
// between slices and restored into a fresh Decomposer with the same
// dims and Options, so long-running deployments can survive restarts
// without replaying the stream. The format captures exactly the state
// that crosses slice boundaries: the factors, their Gram invariants,
// the temporal Gram G and the last sₜ, the slice counter, and the WAL
// cursor (Cursor) — the replay point of a spilled ingest backlog, so the
// state and the position it was folded up to commit as one file. The factors
// are written as the committed version stores them, lazy z side and
// all (Version): the stored rows, each row's age and the log of suffix
// products, so a restored run continues bit for bit, flushes included.
// The algorithm reads the past only through G, so no temporal history
// is stored and a checkpoint's size does not grow with t; an spCP slice
// computes its C_z from the rows it gathers, so no nz set or z-row Gram
// is stored either, and a checkpoint's size does not depend on the
// algorithm.
//
// The format is SPSTRM07: magic, payload, cursor, and a CRC32 (IEEE)
// footer covering all of it, so a checkpoint truncated or bit-flipped
// at rest is rejected instead of restoring silently wrong state. Older
// versions are rejected by their magic: v1 had no footer, v2/v3 carry
// no cursor, so restoring one would replay a spilled backlog the state
// may already hold, v4 carries no z-side log, v5 carries the temporal
// history, and v6 the nz sets and z-row Grams this version dropped.
//
// Payload, little-endian u64 words unless noted: N, I₁…I_N, K, t, lag;
// per mode the stored Iₙ×K factor, Iₙ age bytes, lag K×K suffix
// products and C (float64 words); G, sₜ; the cursor. t must fit a
// non-negative int.

// stateMagic identifies the checkpoint container and its version.
var stateMagic = [8]byte{'S', 'P', 'S', 'T', 'R', 'M', '0', '7'}

// stateBuf is the size of the one buffer a checkpoint is encoded and
// decoded through, whatever the factors' size.
const stateBuf = 64 << 10

// stateEnc writes little-endian words through one buffer, keeping a
// running CRC32 (IEEE) of everything it flushes. The first write error
// sticks and ends all further writes.
type stateEnc struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

func (e *stateEnc) flush() {
	if e.err == nil && len(e.buf) > 0 {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *stateEnc) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *stateEnc) u64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *stateEnc) floats(v []float64) {
	for _, x := range v {
		e.room(8)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x))
	}
}

func (e *stateEnc) bytes(v []byte) {
	for len(v) > 0 {
		e.room(1)
		n := min(len(v), cap(e.buf)-len(e.buf))
		e.buf = append(e.buf, v[:n]...)
		v = v[n:]
	}
}

func (e *stateEnc) matrix(m *dense.Matrix) {
	for i := 0; i < m.Rows; i++ {
		e.floats(m.Row(i))
	}
}

// stateDec is stateEnc's reader: little-endian words read through one
// buffer from r, with a running CRC32 of everything read; the first
// error sticks.
type stateDec struct {
	r   io.Reader
	buf []byte
	crc uint32
	err error
}

// next reads n ≤ len(buf) bytes, or returns nil once an error stuck.
func (dc *stateDec) next(n int) []byte {
	if dc.err != nil {
		return nil
	}
	b := dc.buf[:n]
	if _, dc.err = io.ReadFull(dc.r, b); dc.err != nil {
		return nil
	}
	dc.crc = crc32.Update(dc.crc, crc32.IEEETable, b)
	return b
}

func (dc *stateDec) u64() uint64 {
	if b := dc.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (dc *stateDec) floats(v []float64) {
	for len(v) > 0 {
		n := min(len(v), len(dc.buf)/8)
		b := dc.next(8 * n)
		if b == nil {
			return
		}
		for i := range v[:n] {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		v = v[n:]
	}
}

func (dc *stateDec) bytes(v []byte) {
	for len(v) > 0 {
		n := min(len(v), len(dc.buf))
		b := dc.next(n)
		if b == nil {
			return
		}
		copy(v, b)
		v = v[n:]
	}
}

func (dc *stateDec) matrix(m *dense.Matrix) {
	for i := 0; i < m.Rows; i++ {
		dc.floats(m.Row(i))
	}
}

// Cursor returns the highest WAL sequence number whose slice the state
// already includes (0 for none): restored by RestoreState, set by the
// ingest pipeline before every checkpoint it writes.
func (d *Decomposer) Cursor() uint64 { return d.cursor }

// SetCursor records the WAL cursor the next SaveState writes.
func (d *Decomposer) SetCursor(seq uint64) { d.cursor = seq }

// SaveState serializes the decomposer's streaming state (SPSTRM07,
// with the CRC footer) through one buffer, so it allocates the same at
// any mode length. It must be called between slices (never concurrently
// with ProcessSlice).
func (d *Decomposer) SaveState(w io.Writer) error {
	e := &stateEnc{w: w, buf: make([]byte, 0, stateBuf)}
	e.buf = append(e.buf, stateMagic[:]...)
	e.u64(uint64(d.n))
	for _, dim := range d.dims {
		e.u64(uint64(dim))
	}
	e.u64(uint64(d.k))
	e.u64(uint64(d.t))
	v := d.cur
	e.u64(uint64(v.lag))
	// Factors with their z side, Gram invariants.
	for m, a := range v.a {
		e.matrix(a)
		e.bytes(v.age[m])
		for _, p := range v.log[m][:v.lag] {
			e.matrix(p)
		}
		e.matrix(d.c[m])
	}
	e.matrix(d.g)
	e.floats(d.s)
	e.u64(d.cursor)
	e.flush()
	if e.err != nil {
		return e.err
	}
	// CRC footer over magic + payload (not hashed itself).
	_, err := w.Write(binary.LittleEndian.AppendUint32(e.buf, e.crc))
	return err
}

// RestoreState loads a checkpoint written by SaveState into this
// decomposer. The decomposer must have been created with the same dims
// and rank; mismatches, truncations, and checksum failures are
// rejected. The factors are decoded into the spare version and the
// small state into scratch, and both replace the decomposer's only once
// the checksum matched, so a rejected checkpoint leaves the decomposer
// exactly as it was. Every length field is validated against the
// receiver before it drives an allocation, so arbitrary (fuzzed) input
// cannot trigger huge allocations.
func (d *Decomposer) RestoreState(r io.Reader) error {
	dc := &stateDec{r: bufio.NewReader(r), buf: make([]byte, stateBuf)}
	b := dc.next(len(stateMagic))
	if b == nil {
		return fmt.Errorf("core: reading checkpoint magic: %w", dc.err)
	}
	if magic := [8]byte(b); magic != stateMagic {
		return fmt.Errorf("core: bad checkpoint magic %q (this build reads %s only)", magic, stateMagic)
	}
	if n := dc.u64(); dc.err != nil {
		return dc.err
	} else if int(n) != d.n {
		return fmt.Errorf("core: checkpoint has %d modes, decomposer %d", n, d.n)
	}
	for m := 0; m < d.n; m++ {
		if dim := dc.u64(); dc.err != nil {
			return dc.err
		} else if int(dim) != d.dims[m] {
			return fmt.Errorf("core: checkpoint mode %d length %d ≠ %d", m, dim, d.dims[m])
		}
	}
	if k := dc.u64(); dc.err != nil {
		return dc.err
	} else if int(k) != d.k {
		return fmt.Errorf("core: checkpoint rank %d ≠ %d", k, d.k)
	}
	t := dc.u64()
	lag := dc.u64()
	if dc.err != nil {
		return dc.err
	}
	if t > math.MaxInt {
		return fmt.Errorf("core: checkpoint slice counter t=%d does not fit an int", t)
	}
	if lag >= zLogLen || lag > t {
		return fmt.Errorf("core: checkpoint z-side log of %d transforms at t=%d (at most %d)", lag, t, min(t, zLogLen-1))
	}
	// The spare's contents are unknown from here on: nothing may bring
	// it level by copying only a few rows.
	v := d.claimSpare()
	d.beginWrite(v, nil)
	v.growLog(int(lag))
	c := make([]*dense.Matrix, d.n)
	for m := range c {
		c[m] = dense.NewMatrix(d.k, d.k)
		dc.matrix(v.a[m])
		dc.bytes(v.age[m])
		for _, p := range v.log[m][:lag] {
			dc.matrix(p)
		}
		dc.matrix(c[m])
		if dc.err != nil {
			return dc.err
		}
		for i, e := range v.age[m] {
			if uint64(e) > lag {
				return fmt.Errorf("core: checkpoint mode %d row %d is dated after t=%d", m, i, t)
			}
		}
	}
	g, s := dense.NewMatrix(d.k, d.k), make([]float64, d.k)
	dc.matrix(g)
	dc.floats(s)
	cursor := dc.u64()
	if dc.err != nil {
		return dc.err
	}
	sum := dc.crc // everything read so far: magic + payload
	if b = dc.next(4); b == nil {
		return fmt.Errorf("core: reading checkpoint checksum: %w", dc.err)
	}
	if footer := binary.LittleEndian.Uint32(b); footer != sum {
		return fmt.Errorf("core: checkpoint checksum mismatch (stored %08x, computed %08x)", footer, sum)
	}
	v.lag = int(lag)
	d.endWrite(v)
	d.commit(v)
	for m := range c {
		d.c[m].CopyFrom(c[m])
	}
	d.g.CopyFrom(g)
	copy(d.s, s)
	d.t = int(t)
	d.cursor = cursor
	return nil
}
