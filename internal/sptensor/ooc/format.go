// Package ooc implements the out-of-core block-slice tensor format
// (SPBLK001) and its bounded-memory tooling: an atomic sequential
// writer, an mmap-backed random-access BlockReader implementing
// sptensor.BlockSource, and an external-sort converter from FROSTT
// text. The format partitions a sparse tensor into balanced
// hyper-rectangular coordinate blocks (the Ballard/Rouse/Knight
// block-shape rule, shape.go) so blocked kernels touch one block's
// working set at a time while the whole file stays on disk.
//
// File layout (all integers little-endian):
//
//	[8]  magic "SPBLK001"
//	     one section per non-empty block, in ascending row-major grid
//	     order:
//	[4]    crc32 (IEEE) of the payload
//	[8]    payload length
//	         payload: [8] nnz, then per mode nnz×[4] int32
//	         coordinates (columnar), then nnz×[8] float64 values
//	     footer section (same crc+len framing):
//	         [8] nModes, nModes×[8] dims, [8] total nnz,
//	         nModes×[8] grid splits, [8] nBlocks, then per block:
//	         nModes×[4] grid coordinate, [8] file offset, [8] nnz
//	[8]  footer offset
//	[8]  end magic "SPBLKEND"
//
// Block extents are derived from dims and splits (Layout), never
// stored, so distinct grid coordinates cannot overlap by construction;
// the reader rejects any index whose grid ranks are not strictly
// increasing, which is exactly the overlapping/duplicated-extent
// corruption class. The trailer carries the footer offset so a reader
// can locate metadata without scanning block sections, and the end
// magic distinguishes truncation from other corruption.
package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// Magic opens every block-slice file.
	Magic = "SPBLK001"
	// EndMagic closes every block-slice file.
	EndMagic = "SPBLKEND"
	// MaxModes bounds the mode count, matching the SPT1 binary format.
	MaxModes = 16

	sectionHeaderLen = 4 + 8 // crc32 + payload length
	trailerLen       = 8 + 8 // footer offset + end magic
)

// entryBytes is the encoded size of one nonzero: one int32 per mode
// plus a float64 value.
func entryBytes(nModes int) int { return 4*nModes + 8 }

// blockPayloadLen is the payload size of a block section holding nnz
// nonzeros.
func blockPayloadLen(nModes int, nnz int64) int64 {
	return 8 + nnz*int64(entryBytes(nModes))
}

// Layout is the derived block grid of a file: mode m is cut into
// Splits[m] near-equal coordinate ranges and a block is one cell of
// the resulting grid. Extents are a pure function of (Dims, Splits),
// so writer and reader always agree without storing per-block bounds.
type Layout struct {
	Dims   []int
	Splits []int
}

// Side returns the coordinate width of mode m's grid cells
// (⌈dim/splits⌉; the last cell may be narrower).
func (l Layout) Side(m int) int32 {
	d, s := l.Dims[m], l.Splits[m]
	if s < 1 {
		s = 1
	}
	if d <= 0 {
		return 1
	}
	return int32((d + s - 1) / s)
}

// GridDim returns the number of occupied-able cells along mode m:
// ⌈dim/side⌉, which can be smaller than Splits[m] when the rounding
// in Side swallows the tail.
func (l Layout) GridDim(m int) int32 {
	d := l.Dims[m]
	if d <= 0 {
		return 1
	}
	side := int64(l.Side(m))
	return int32((int64(d) + side - 1) / side)
}

// GridCoord returns the grid cell of coordinate c along mode m.
func (l Layout) GridCoord(m int, c int32) int32 { return c / l.Side(m) }

// Rank returns the row-major rank of a grid coordinate — the order
// blocks appear in the file.
func (l Layout) Rank(grid []int32) int64 {
	r := int64(0)
	for m := range l.Dims {
		r = r*int64(l.GridDim(m)) + int64(grid[m])
	}
	return r
}

// cells returns the number of grid cells, the range of a block rank,
// refusing a grid whose ranks do not fit the int32 the sorts key on.
func (l Layout) cells() (int, error) {
	c := int64(1)
	for m := range l.Dims {
		c *= int64(l.GridDim(m))
		if c >= math.MaxInt32 {
			return 0, fmt.Errorf("ooc: block grid of more than %d cells", math.MaxInt32-1)
		}
	}
	return int(c), nil
}

// Extent returns the half-open coordinate range [lo, hi) of grid cell
// g along mode m.
func (l Layout) Extent(m int, g int32) (lo, hi int32) {
	side := l.Side(m)
	lo = g * side
	hi = lo + side
	if d := int32(l.Dims[m]); hi > d {
		hi = d
	}
	return lo, hi
}

// validate checks a layout decoded from an untrusted footer.
func (l Layout) validate() error {
	if len(l.Dims) < 1 || len(l.Dims) > MaxModes {
		return fmt.Errorf("ooc: %d modes outside [1,%d]", len(l.Dims), MaxModes)
	}
	for m, d := range l.Dims {
		if d < 1 || d > math.MaxInt32 {
			return fmt.Errorf("ooc: mode %d length %d out of range", m, d)
		}
		s := l.Splits[m]
		if s < 1 || s > d {
			return fmt.Errorf("ooc: mode %d split count %d out of range [1,%d]", m, s, d)
		}
	}
	return nil
}

// indexEntry is one block-index record of the footer.
type indexEntry struct {
	grid   []int32
	offset int64 // file offset of the block's section header
	nnz    int64
}

var crcTable = crc32.IEEETable

// byteReader is a bounds-checked cursor over an untrusted byte slice;
// every decode helper reports truncation instead of panicking, which is
// what lets the fuzzer drive arbitrary footers through the parser.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("ooc: truncated field at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("ooc: truncated field at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// i64 decodes a u64 that must fit in a non-negative int64.
func (r *byteReader) i64() (int64, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("ooc: field value %d overflows int64", v)
	}
	return int64(v), nil
}

// appendU32/appendU64/putU32/putU64/floatBits are the encode-side twins.
func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

func floatBits(v float64) uint64 { return math.Float64bits(v) }

// encodeFooter serializes the footer payload.
func encodeFooter(buf []byte, lay Layout, totalNNZ int64, idx []indexEntry) []byte {
	buf = buf[:0]
	buf = appendU64(buf, uint64(len(lay.Dims)))
	for _, d := range lay.Dims {
		buf = appendU64(buf, uint64(d))
	}
	buf = appendU64(buf, uint64(totalNNZ))
	for _, s := range lay.Splits {
		buf = appendU64(buf, uint64(s))
	}
	buf = appendU64(buf, uint64(len(idx)))
	for _, e := range idx {
		for _, g := range e.grid {
			buf = appendU32(buf, uint32(g))
		}
		buf = appendU64(buf, uint64(e.offset))
		buf = appendU64(buf, uint64(e.nnz))
	}
	return buf
}

// decodeFooter parses and validates an untrusted footer payload.
// footerOff bounds every offset and count so a corrupt footer can
// neither address bytes outside the block region nor force allocations
// beyond what the file size can justify.
func decodeFooter(payload []byte, footerOff int64) (Layout, int64, []indexEntry, error) {
	r := &byteReader{b: payload}
	nModes, err := r.i64()
	if err != nil {
		return Layout{}, 0, nil, err
	}
	if nModes < 1 || nModes > MaxModes {
		return Layout{}, 0, nil, fmt.Errorf("ooc: %d modes outside [1,%d]", nModes, MaxModes)
	}
	lay := Layout{Dims: make([]int, nModes), Splits: make([]int, nModes)}
	for m := range lay.Dims {
		d, err := r.i64()
		if err != nil {
			return Layout{}, 0, nil, err
		}
		if d < 1 || d > math.MaxInt32 {
			return Layout{}, 0, nil, fmt.Errorf("ooc: mode %d length %d out of range", m, d)
		}
		lay.Dims[m] = int(d)
	}
	totalNNZ, err := r.i64()
	if err != nil {
		return Layout{}, 0, nil, err
	}
	// Every stored nonzero occupies entryBytes in some block section;
	// a total beyond what the block region could hold is corruption,
	// and catching it here caps all downstream buffer sizing.
	if totalNNZ > footerOff/int64(entryBytes(int(nModes))) {
		return Layout{}, 0, nil, fmt.Errorf("ooc: declared %d nonzeros exceed file capacity", totalNNZ)
	}
	for m := range lay.Splits {
		s, err := r.i64()
		if err != nil {
			return Layout{}, 0, nil, err
		}
		if s < 1 || s > int64(lay.Dims[m]) {
			return Layout{}, 0, nil, fmt.Errorf("ooc: mode %d split count %d out of range", m, s)
		}
		lay.Splits[m] = int(s)
	}
	nBlocks, err := r.i64()
	if err != nil {
		return Layout{}, 0, nil, err
	}
	entryLen := int64(4*nModes + 16)
	if nBlocks < 0 || nBlocks > int64(r.remaining())/entryLen {
		return Layout{}, 0, nil, fmt.Errorf("ooc: block index count %d exceeds footer size", nBlocks)
	}
	idx := make([]indexEntry, nBlocks)
	grids := make([]int32, nBlocks*nModes)
	prevRank := int64(-1)
	prevEnd := int64(len(Magic))
	var sumNNZ int64
	for b := range idx {
		e := &idx[b]
		e.grid = grids[int64(b)*nModes : (int64(b)+1)*nModes]
		for m := range e.grid {
			g, err := r.u32()
			if err != nil {
				return Layout{}, 0, nil, err
			}
			if int32(g) < 0 || int32(g) >= lay.GridDim(m) {
				return Layout{}, 0, nil, fmt.Errorf("ooc: block %d grid coordinate %d out of range in mode %d", b, g, m)
			}
			e.grid[m] = int32(g)
		}
		rank := lay.Rank(e.grid)
		if rank <= prevRank {
			return Layout{}, 0, nil, fmt.Errorf("ooc: block %d grid rank %d not after %d (duplicate or overlapping block extents)", b, rank, prevRank)
		}
		prevRank = rank
		if e.offset, err = r.i64(); err != nil {
			return Layout{}, 0, nil, err
		}
		if e.nnz, err = r.i64(); err != nil {
			return Layout{}, 0, nil, err
		}
		if e.nnz < 0 || e.nnz > totalNNZ {
			return Layout{}, 0, nil, fmt.Errorf("ooc: block %d nonzero count %d out of range", b, e.nnz)
		}
		end := e.offset + sectionHeaderLen + blockPayloadLen(int(nModes), e.nnz)
		if e.offset < prevEnd || end > footerOff {
			return Layout{}, 0, nil, fmt.Errorf("ooc: block %d section [%d,%d) outside [%d,%d)", b, e.offset, end, prevEnd, footerOff)
		}
		prevEnd = end
		sumNNZ += e.nnz
	}
	if sumNNZ != totalNNZ {
		return Layout{}, 0, nil, fmt.Errorf("ooc: block index sums to %d nonzeros, footer declares %d", sumNNZ, totalNNZ)
	}
	if err := lay.validate(); err != nil {
		return Layout{}, 0, nil, err
	}
	return lay, totalNNZ, idx, nil
}
