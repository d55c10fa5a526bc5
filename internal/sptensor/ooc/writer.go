package ooc

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"spstream/internal/resilience"
	"spstream/internal/sptensor"
)

// DefaultBlockNNZ is the target nonzero count per block when the
// caller does not choose one: big enough that per-block kernel launch
// and CRC costs amortize, small enough that a decoded block plus its
// sort scratch stays a few megabytes for typical mode counts.
const DefaultBlockNNZ = 1 << 16

// fileWriter emits one SPBLK001 file sequentially: magic, block
// sections in ascending grid-rank order, footer, trailer. It tracks
// offsets itself so it can run inside resilience.AtomicWriteFile's
// temp-file writer, which has no Seek.
type fileWriter struct {
	w       io.Writer
	lay     Layout
	off     int64
	idx     []indexEntry
	grids   []int32
	payload []byte
	nnz     int64
}

func newFileWriter(w io.Writer, lay Layout) (*fileWriter, error) {
	if err := lay.validate(); err != nil {
		return nil, err
	}
	fw := &fileWriter{w: w, lay: lay}
	if err := fw.write([]byte(Magic)); err != nil {
		return nil, err
	}
	return fw, nil
}

func (fw *fileWriter) write(b []byte) error {
	n, err := fw.w.Write(b)
	fw.off += int64(n)
	return err
}

// writeBlock appends one block section. Blocks must arrive in strictly
// ascending grid-rank order with every coordinate inside the block's
// extent — the writer enforces the invariants the reader will check.
func (fw *fileWriter) writeBlock(grid []int32, coords [][]int32, vals []float64) error {
	nModes := len(fw.lay.Dims)
	if len(grid) != nModes || len(coords) != nModes {
		return fmt.Errorf("ooc: block with %d modes written to %d-mode file", len(grid), nModes)
	}
	nnz := len(vals)
	if nnz == 0 {
		return nil // empty blocks are simply not stored
	}
	rank := fw.lay.Rank(grid)
	if n := len(fw.idx); n > 0 && fw.lay.Rank(fw.idx[n-1].grid) >= rank {
		return fmt.Errorf("ooc: block rank %d not after %d (blocks must be written in grid order)", rank, fw.lay.Rank(fw.idx[n-1].grid))
	}
	for m := 0; m < nModes; m++ {
		if len(coords[m]) != nnz {
			return fmt.Errorf("ooc: block mode %d has %d coordinates for %d values", m, len(coords[m]), nnz)
		}
		lo, hi := fw.lay.Extent(m, grid[m])
		for _, c := range coords[m] {
			if c < lo || c >= hi {
				return fmt.Errorf("ooc: mode-%d coordinate %d outside block extent [%d,%d)", m, c, lo, hi)
			}
		}
	}

	fw.payload = fw.payload[:0]
	fw.payload = appendU64(fw.payload, uint64(nnz))
	for m := 0; m < nModes; m++ {
		for _, c := range coords[m] {
			fw.payload = appendU32(fw.payload, uint32(c))
		}
	}
	for _, v := range vals {
		fw.payload = appendU64(fw.payload, floatBits(v))
	}

	offset := fw.off
	var hdr [sectionHeaderLen]byte
	crc := crc32.Checksum(fw.payload, crcTable)
	putU32(hdr[0:4], crc)
	putU64(hdr[4:12], uint64(len(fw.payload)))
	if err := fw.write(hdr[:]); err != nil {
		return err
	}
	if err := fw.write(fw.payload); err != nil {
		return err
	}
	fw.grids = append(fw.grids, grid...)
	g := fw.grids[len(fw.grids)-nModes:]
	fw.idx = append(fw.idx, indexEntry{grid: g, offset: offset, nnz: int64(nnz)})
	fw.nnz += int64(nnz)
	return nil
}

// finish writes the footer and trailer.
func (fw *fileWriter) finish() error {
	footerOff := fw.off
	fw.payload = encodeFooter(fw.payload, fw.lay, fw.nnz, fw.idx)
	var hdr [sectionHeaderLen]byte
	putU32(hdr[0:4], crc32.Checksum(fw.payload, crcTable))
	putU64(hdr[4:12], uint64(len(fw.payload)))
	if err := fw.write(hdr[:]); err != nil {
		return err
	}
	if err := fw.write(fw.payload); err != nil {
		return err
	}
	var trailer [trailerLen]byte
	putU64(trailer[0:8], uint64(footerOff))
	copy(trailer[8:16], EndMagic)
	return fw.write(trailer[:])
}

// WriteTensor writes an in-memory tensor to path as an SPBLK001 file,
// blocked by BlockShape at the given target block size (≤0 uses
// DefaultBlockNNZ). Nonzeros are put in grid order by a counting sort
// over block ranks (gridOrder), which is stable: within a block the
// original storage order is preserved, so the file's block
// concatenation is the stable grid-sort of the input.
// The write is atomic (temp + fsync + rename).
func WriteTensor(path string, x *sptensor.Tensor, targetBlockNNZ int) error {
	if err := x.Validate(); err != nil {
		return err
	}
	if x.NModes() < 1 || x.NModes() > MaxModes {
		return fmt.Errorf("ooc: cannot write %d-mode tensor", x.NModes())
	}
	for m, d := range x.Dims {
		if d < 1 {
			return fmt.Errorf("ooc: mode %d has zero length; block grid needs positive dims", m)
		}
	}
	if targetBlockNNZ <= 0 {
		targetBlockNNZ = DefaultBlockNNZ
	}
	lay := Layout{Dims: x.Dims, Splits: BlockShape(x.Dims, x.NNZ(), targetBlockNNZ)}

	n := x.NNZ()
	nModes := x.NModes()
	cells, err := lay.cells()
	if err != nil {
		return err
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("ooc: cannot write %d nonzeros (limit %d)", n, math.MaxInt32)
	}
	ranks := make([]int32, n)
	perm := make([]int32, n)
	gridOrder(lay, x.Inds, ranks, perm, make([]int32, cells+1))

	return resilience.AtomicWriteFile(path, func(w io.Writer) error {
		fw, err := newFileWriter(w, lay)
		if err != nil {
			return err
		}
		grid := make([]int32, nModes)
		coords := make([][]int32, nModes)
		var vals []float64
		flush := func() error {
			if len(vals) == 0 {
				return nil
			}
			err := fw.writeBlock(grid, coords, vals)
			for m := range coords {
				coords[m] = coords[m][:0]
			}
			vals = vals[:0]
			return err
		}
		last := int32(-1)
		for _, p := range perm {
			if ranks[p] != last {
				if err := flush(); err != nil {
					return err
				}
				last = ranks[p]
				for m := 0; m < nModes; m++ {
					grid[m] = lay.GridCoord(m, x.Inds[m][p])
				}
			}
			for m := 0; m < nModes; m++ {
				coords[m] = append(coords[m], x.Inds[m][p])
			}
			vals = append(vals, x.Vals[p])
		}
		if err := flush(); err != nil {
			return err
		}
		return fw.finish()
	})
}

// gridOrder fills ranks with each nonzero's block rank and perm with the
// nonzeros in ascending rank, ties in input order: a counting sort over
// the grid's cells, O(nnz + cells). count needs cells+1 slots.
func gridOrder(lay Layout, coords [][]int32, ranks, perm, count []int32) {
	var side, gdim [MaxModes]int32
	for m := range coords {
		side[m], gdim[m] = lay.Side(m), lay.GridDim(m)
	}
	clear(count)
	for e := range ranks {
		r := int32(0)
		for m, col := range coords {
			r = r*gdim[m] + col[e]/side[m]
		}
		ranks[e] = r
		count[r+1]++
	}
	for c := 1; c < len(count); c++ {
		count[c] += count[c-1]
	}
	for e, r := range ranks {
		perm[count[r]] = int32(e)
		count[r]++
	}
}
