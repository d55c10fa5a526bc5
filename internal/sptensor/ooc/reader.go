package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"

	"spstream/internal/sptensor"
)

// blockFile abstracts how section bytes reach the decoder: the mmap
// backend (file_mmap.go) returns zero-copy subslices of the mapping,
// the pread fallback (file_pread.go, or the spblk_pread build tag)
// reads into the caller's scratch. Either way the decoder sees one
// contiguous []byte per section.
type blockFile interface {
	// section returns n bytes at off. A backend that must copy reads
	// into *scratch, growing it as needed (nil: a fresh buffer), and the
	// result is then valid until the next section call with the same
	// scratch. Safe for concurrent use with distinct scratch.
	section(scratch *[]byte, off, n int64) ([]byte, error)
	size() int64
	close() error
}

// BlockReader is the random-access reader for SPBLK001 files. It
// implements sptensor.BlockSource: Block and BlockInto decode one block
// into a reusable buffer (the reader's own, or one the caller owns and
// may use concurrently with other callers'), so iterating every block
// over and over (one pass per mode per iteration in the streamed
// kernels) allocates nothing after the first full pass. CRCs are
// verified on a block's first access and skipped on re-reads —
// repeated kernel passes pay decode cost only.
type BlockReader struct {
	f        blockFile
	lay      Layout
	totalNNZ int64
	idx      []indexEntry

	verified []atomic.Bool
	own      sptensor.BlockBuf // Block's destination
}

// Open maps (or opens) an SPBLK001 file and parses + validates its
// footer and block index. Every count and offset is bounded by the
// file size before any dependent allocation, so corrupt metadata
// produces an error, never an OOM.
func Open(path string) (*BlockReader, error) {
	f, err := openBlockFile(path)
	if err != nil {
		return nil, err
	}
	r, err := newReader(f)
	if err != nil {
		f.close()
		return nil, err
	}
	return r, nil
}

func newReader(f blockFile) (*BlockReader, error) {
	size := f.size()
	minSize := int64(len(Magic)) + sectionHeaderLen + trailerLen
	if size < minSize {
		return nil, fmt.Errorf("ooc: file of %d bytes is shorter than the smallest valid block file", size)
	}
	head, err := f.section(nil, 0, int64(len(Magic)))
	if err != nil {
		return nil, err
	}
	if string(head) != Magic {
		return nil, fmt.Errorf("ooc: bad magic %q", head)
	}
	trailer, err := f.section(nil, size-trailerLen, trailerLen)
	if err != nil {
		return nil, err
	}
	if string(trailer[8:16]) != EndMagic {
		return nil, fmt.Errorf("ooc: bad end magic %q (truncated file?)", trailer[8:16])
	}
	footerOff := binary.LittleEndian.Uint64(trailer[0:8])
	if footerOff > math.MaxInt64 || int64(footerOff) < int64(len(Magic)) ||
		int64(footerOff)+sectionHeaderLen > size-trailerLen {
		return nil, fmt.Errorf("ooc: footer offset %d outside file of %d bytes", footerOff, size)
	}
	fOff := int64(footerOff)
	hdr, err := f.section(nil, fOff, sectionHeaderLen)
	if err != nil {
		return nil, err
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
	fLen := binary.LittleEndian.Uint64(hdr[4:12])
	if fLen > uint64(size-trailerLen-fOff-sectionHeaderLen) {
		return nil, fmt.Errorf("ooc: footer length %d exceeds file", fLen)
	}
	payload, err := f.section(nil, fOff+sectionHeaderLen, int64(fLen))
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		return nil, fmt.Errorf("ooc: footer checksum %08x, want %08x", got, wantCRC)
	}
	lay, totalNNZ, idx, err := decodeFooter(payload, fOff)
	if err != nil {
		return nil, err
	}
	r := &BlockReader{
		f:        f,
		lay:      lay,
		totalNNZ: totalNNZ,
		idx:      idx,
		verified: make([]atomic.Bool, len(idx)),
	}
	return r, nil
}

// Close releases the mapping or file handle.
func (r *BlockReader) Close() error { return r.f.close() }

// Dims returns the mode lengths of the whole tensor.
func (r *BlockReader) Dims() []int { return r.lay.Dims }

// NNZ returns the total nonzero count.
func (r *BlockReader) NNZ() int { return int(r.totalNNZ) }

// Blocks returns the number of stored (non-empty) blocks.
func (r *BlockReader) Blocks() int { return len(r.idx) }

// Layout returns the block grid of the file.
func (r *BlockReader) Layout() Layout { return r.lay }

// Extent returns the half-open coordinate range of block b in mode m —
// the hook the blocked CSF build uses to group blocks into disjoint
// root-coordinate slabs.
func (r *BlockReader) Extent(b, m int) (lo, hi int32) {
	return r.lay.Extent(m, r.idx[b].grid[m])
}

// BlockNNZ returns block b's nonzero count without decoding it.
func (r *BlockReader) BlockNNZ(b int) int { return int(r.idx[b].nnz) }

// BlockGrid returns block b's grid coordinate (aliased, do not mutate).
func (r *BlockReader) BlockGrid(b int) []int32 { return r.idx[b].grid }

// BlockOffset returns the file offset of block b's section.
func (r *BlockReader) BlockOffset(b int) int64 { return r.idx[b].offset }

// Block decodes block b into the reader's own buffer. The result is
// valid until the next Block call; concurrent callers use BlockInto.
func (r *BlockReader) Block(b int) (*sptensor.Tensor, error) {
	return r.BlockInto(b, &r.own)
}

// BlockInto decodes block b into buf. Calls with distinct buffers may
// run concurrently: the reader's own state is read-only apart from the
// per-block verified flags, which are atomic. The block's coordinates
// are validated against its grid extent on every decode, so a value
// that decodes out of range (bit rot past the CRC, or a forged index)
// is an error rather than a later out-of-bounds kernel access.
func (r *BlockReader) BlockInto(b int, buf *sptensor.BlockBuf) (*sptensor.Tensor, error) {
	if b < 0 || b >= len(r.idx) {
		return nil, fmt.Errorf("ooc: block %d out of range [0,%d)", b, len(r.idx))
	}
	e := &r.idx[b]
	nModes := len(r.lay.Dims)
	wantLen := blockPayloadLen(nModes, e.nnz)
	hdr, err := r.f.section(&buf.Raw, e.offset, sectionHeaderLen)
	if err != nil {
		return nil, err
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
	gotLen := binary.LittleEndian.Uint64(hdr[4:12])
	if gotLen != uint64(wantLen) {
		return nil, fmt.Errorf("ooc: block %d section length %d, index implies %d", b, gotLen, wantLen)
	}
	payload, err := r.f.section(&buf.Raw, e.offset+sectionHeaderLen, wantLen)
	if err != nil {
		return nil, err
	}
	// Whichever caller reaches a block first checks its CRC; two racing
	// first readers both check, which is only redundant.
	if !r.verified[b].Load() {
		if got := crc32.Checksum(payload, crcTable); got != wantCRC {
			return nil, fmt.Errorf("ooc: block %d checksum %08x, want %08x", b, got, wantCRC)
		}
		r.verified[b].Store(true)
	}
	if got := binary.LittleEndian.Uint64(payload[0:8]); got != uint64(e.nnz) {
		return nil, fmt.Errorf("ooc: block %d payload declares %d nonzeros, index %d", b, got, e.nnz)
	}
	blk := &buf.Tensor
	blk.Dims = r.lay.Dims
	if len(blk.Inds) != nModes {
		blk.Inds = make([][]int32, nModes)
	}
	nnz := int(e.nnz)
	off := 8
	for m := 0; m < nModes; m++ {
		if cap(blk.Inds[m]) < nnz {
			blk.Inds[m] = make([]int32, nnz)
		}
		col := blk.Inds[m][:nnz]
		blk.Inds[m] = col
		lo, hi := r.lay.Extent(m, e.grid[m])
		if i := decodeCoords(col, payload[off:off+4*nnz], lo, hi); i >= 0 {
			return nil, fmt.Errorf("ooc: block %d mode-%d coordinate %d outside extent [%d,%d)", b, m, col[i], lo, hi)
		}
		off += 4 * nnz
	}
	if cap(blk.Vals) < nnz {
		blk.Vals = make([]float64, nnz)
	}
	blk.Vals = blk.Vals[:nnz]
	decodeVals(blk.Vals, payload[off:off+8*nnz])
	return blk, nil
}

// decodeCoords decodes len(col) little-endian int32 coordinates from sec
// into col and checks each against [lo, hi) with one unsigned compare.
// It returns the index of the first coordinate outside the extent (left
// in col for the error message), or −1. Four at a time: the fixed-size
// sub-slices cost one bounds check per group, and a group holding a bad
// coordinate falls through to the scalar loop, which finds the first.
func decodeCoords(col []int32, sec []byte, lo, hi int32) int {
	width := uint32(hi - lo)
	i := 0
	for ; i+4 <= len(col); i += 4 {
		q := sec[4*i : 4*i+16 : 4*i+16]
		d := col[i : i+4 : i+4]
		c0 := int32(binary.LittleEndian.Uint32(q[0:]))
		c1 := int32(binary.LittleEndian.Uint32(q[4:]))
		c2 := int32(binary.LittleEndian.Uint32(q[8:]))
		c3 := int32(binary.LittleEndian.Uint32(q[12:]))
		if uint32(c0-lo) >= width || uint32(c1-lo) >= width || uint32(c2-lo) >= width || uint32(c3-lo) >= width {
			break
		}
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
	}
	for ; i < len(col); i++ {
		c := int32(binary.LittleEndian.Uint32(sec[4*i:]))
		col[i] = c
		if uint32(c-lo) >= width {
			return i
		}
	}
	return -1
}

// decodeVals decodes len(vals) little-endian float64 values from sec.
func decodeVals(vals []float64, sec []byte) {
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		q := sec[8*i : 8*i+32 : 8*i+32]
		d := vals[i : i+4 : i+4]
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(q[0:]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(q[8:]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(q[16:]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(q[24:]))
	}
	for ; i < len(vals); i++ {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[8*i:]))
	}
}
