package ooc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"spstream/internal/resilience"
	"spstream/internal/sptensor"
)

// ConvertOptions configures the .tns → .spblk external conversion.
type ConvertOptions struct {
	// TargetBlockNNZ is the per-block nonzero target for BlockShape
	// (≤0 uses DefaultBlockNNZ).
	TargetBlockNNZ int
	// MemBudget caps the converter's sort working set in bytes (≤0
	// uses 256 MiB). Peak heap is O(MemBudget + largest block), never a
	// function of the input's total nonzero count: the input is sorted
	// in budget-sized chunks spilled to temporary run files and k-way
	// merged into the output.
	MemBudget int64
	// Dims optionally fixes the mode lengths (validated against every
	// coordinate); nil infers them from the input.
	Dims []int
}

// ConvertStats reports what a conversion produced.
type ConvertStats struct {
	Dims   []int
	NNZ    int
	Splits []int
	Blocks int
	Runs   int
}

// runEntry framing: each temporary run file is a raw sequence of
// (nModes×int32 coordinates, float64 value) records, already sorted by
// grid rank. Stability: within a run gridOrder's counting sort keeps
// input order among equal ranks, and the merge breaks rank ties by run
// index, so the output's block concatenation is the stable grid-sort of
// the input — the same canonical order WriteTensor produces in memory.

// ConvertTNS converts a FROSTT text tensor into an SPBLK001 block
// file with bounded memory: one streaming pass to learn dims and nnz,
// one chunked pass writing sorted run files, and a k-way merge written
// atomically to outPath.
func ConvertTNS(tnsPath, outPath string, opt ConvertOptions) (*ConvertStats, error) {
	if opt.TargetBlockNNZ <= 0 {
		opt.TargetBlockNNZ = DefaultBlockNNZ
	}
	if opt.MemBudget <= 0 {
		opt.MemBudget = 256 << 20
	}

	// Pass 1: shape scan.
	in, err := os.Open(tnsPath)
	if err != nil {
		return nil, err
	}
	dims, nnz, err := sptensor.ScanTNS(in, opt.Dims, func([]int32, float64) error { return nil })
	in.Close()
	if err != nil {
		return nil, err
	}
	if len(dims) > MaxModes {
		return nil, fmt.Errorf("ooc: cannot convert %d-mode tensor", len(dims))
	}
	nModes := len(dims)
	lay := Layout{Dims: dims, Splits: BlockShape(dims, nnz, opt.TargetBlockNNZ)}
	cells, err := lay.cells()
	if err != nil {
		return nil, err
	}

	// Chunk capacity: the budget less the rank histogram, over
	// coordinates + value + int32 rank + int32 sort permutation.
	perEntry := int64(4*nModes + 8 + 4 + 4)
	chunkCap := int((opt.MemBudget - 4*int64(cells+1)) / perEntry)
	if chunkCap < 1024 {
		chunkCap = 1024
	}
	if chunkCap > nnz {
		chunkCap = nnz
	}

	// Pass 2: chunked stable sort into temporary runs beside the
	// output (same filesystem, so the merge's reads and the atomic
	// rename stay local).
	dir := filepath.Dir(outPath)
	chunk := newConvertChunk(nModes, chunkCap, cells)
	var runs []*os.File
	cleanup := func() {
		for _, f := range runs {
			name := f.Name()
			f.Close()
			os.Remove(name)
		}
	}
	defer cleanup()

	spill := func() error {
		if chunk.n == 0 {
			return nil
		}
		f, err := os.CreateTemp(dir, ".spblk-run-*")
		if err != nil {
			return err
		}
		runs = append(runs, f)
		if err := chunk.sortAndWrite(f, lay); err != nil {
			return err
		}
		chunk.n = 0
		return nil
	}

	in, err = os.Open(tnsPath)
	if err != nil {
		return nil, err
	}
	_, _, err = sptensor.ScanTNS(in, dims, func(coord []int32, val float64) error {
		if chunk.n == chunkCap {
			if err := spill(); err != nil {
				return err
			}
		}
		chunk.add(coord, val)
		return nil
	})
	in.Close()
	if err != nil {
		return nil, err
	}
	if err := spill(); err != nil {
		return nil, err
	}

	// Merge the runs into the block file.
	st := &ConvertStats{Dims: dims, NNZ: nnz, Splits: lay.Splits, Runs: len(runs)}
	err = resilience.AtomicWriteFile(outPath, func(w io.Writer) error {
		fw, err := newFileWriter(w, lay)
		if err != nil {
			return err
		}
		if err := mergeRuns(fw, runs, lay); err != nil {
			return err
		}
		if fw.nnz != int64(nnz) {
			return fmt.Errorf("ooc: merged %d nonzeros, scanned %d", fw.nnz, nnz)
		}
		st.Blocks = len(fw.idx)
		return fw.finish()
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// convertChunk is one in-memory sort batch, columnar like the tensor.
type convertChunk struct {
	coords [][]int32
	vals   []float64
	ranks  []int32
	perm   []int32
	count  []int32
	n      int
}

func newConvertChunk(nModes, capacity, cells int) *convertChunk {
	c := &convertChunk{
		coords: make([][]int32, nModes),
		vals:   make([]float64, capacity),
		ranks:  make([]int32, capacity),
		perm:   make([]int32, capacity),
		count:  make([]int32, cells+1),
	}
	for m := range c.coords {
		c.coords[m] = make([]int32, capacity)
	}
	return c
}

func (c *convertChunk) add(coord []int32, val float64) {
	for m, v := range coord {
		c.coords[m][c.n] = v
	}
	c.vals[c.n] = val
	c.n++
}

func (c *convertChunk) sortAndWrite(f *os.File, lay Layout) error {
	perm := c.perm[:c.n]
	gridOrder(lay, c.coords, c.ranks[:c.n], perm, c.count)

	bw := bufio.NewWriterSize(f, 1<<16)
	var rec [4*MaxModes + 8]byte
	recLen := entryBytes(len(c.coords))
	for _, p := range perm {
		off := 0
		for m := range c.coords {
			putU32(rec[off:], uint32(c.coords[m][p]))
			off += 4
		}
		putU64(rec[off:], floatBits(c.vals[p]))
		if _, err := bw.Write(rec[:recLen]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	_, err := f.Seek(0, io.SeekStart)
	return err
}

// runCursor streams one sorted run during the merge.
type runCursor struct {
	r     *bufio.Reader
	rec   []byte
	coord []int32
	val   float64
	rank  int64
	done  bool
}

func (rc *runCursor) advance(lay Layout) error {
	if _, err := io.ReadFull(rc.r, rc.rec); err != nil {
		if err == io.EOF {
			rc.done = true
			return nil
		}
		return err
	}
	off := 0
	r := int64(0)
	for m := range rc.coord {
		c := int32(binary.LittleEndian.Uint32(rc.rec[off:]))
		off += 4
		rc.coord[m] = c
		r = r*int64(lay.GridDim(m)) + int64(lay.GridCoord(m, c))
	}
	rc.val = math.Float64frombits(binary.LittleEndian.Uint64(rc.rec[off:]))
	rc.rank = r
	return nil
}

// mergeRuns k-way merges the sorted runs into block sections, buffering
// exactly one block at a time. Rank ties break by run index, which is
// chunk order, which is input order — the stability half of the
// canonical grid-sort.
func mergeRuns(fw *fileWriter, runs []*os.File, lay Layout) error {
	nModes := len(lay.Dims)
	cursors := make([]*runCursor, len(runs))
	for i, f := range runs {
		cursors[i] = &runCursor{
			r:     bufio.NewReaderSize(f, 1<<16),
			rec:   make([]byte, entryBytes(nModes)),
			coord: make([]int32, nModes),
		}
		if err := cursors[i].advance(lay); err != nil {
			return err
		}
	}

	grid := make([]int32, nModes)
	coords := make([][]int32, nModes)
	var vals []float64
	curRank := int64(-1)
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
	for {
		best := -1
		for i, rc := range cursors {
			if rc.done {
				continue
			}
			if best < 0 || rc.rank < cursors[best].rank {
				best = i
			}
		}
		if best < 0 {
			break
		}
		rc := cursors[best]
		if rc.rank != curRank {
			if err := flush(); err != nil {
				return err
			}
			curRank = rc.rank
			for m := 0; m < nModes; m++ {
				grid[m] = lay.GridCoord(m, rc.coord[m])
			}
		}
		for m := 0; m < nModes; m++ {
			coords[m] = append(coords[m], rc.coord[m])
		}
		vals = append(vals, rc.val)
		if err := rc.advance(lay); err != nil {
			return err
		}
	}
	return flush()
}
