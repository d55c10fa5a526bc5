package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"spstream/internal/dense"
)

// Checkpointing: a Decomposer's streaming state can be serialized
// between slices and restored into a fresh Decomposer with the same
// dims and Options, so long-running deployments can survive restarts
// without replaying the stream. The format captures exactly the state
// that crosses slice boundaries: the factors, their Gram invariants,
// the temporal Gram G, the temporal history S, the slice counter, and
// (for spCP-stream) the previous nz sets and z-row Grams.
//
// Format v3 (SPSTRM03) is v2 plus one layout presence flag, which this
// code always writes as 0: the kernel and remap schedule is a pure
// function of each slice and the options, so there is no layout state
// to carry and a stream restored from any version replays the same
// schedule. Older writers stored learned hot-row state behind a flag of
// 1 (per mode a decayed row histogram and an optional row permutation);
// RestoreState steps over such a section — sized from the receiver's
// dims, flags validated, bytes under the checksum — and keeps nothing
// of it. Like v2, v3 carries a CRC32 (IEEE) footer covering the magic
// and the payload, so a checkpoint truncated or bit-flipped at rest is
// rejected instead of restoring silently wrong state. v2 (SPSTRM02, no
// flag) and v1 (SPSTRM01, no flag, no footer) checkpoints still restore.

// stateMagic identifies the checkpoint container and its version.
var (
	stateMagic   = [8]byte{'S', 'P', 'S', 'T', 'R', 'M', '0', '3'}
	stateMagicV2 = [8]byte{'S', 'P', 'S', 'T', 'R', 'M', '0', '2'}
	stateMagicV1 = [8]byte{'S', 'P', 'S', 'T', 'R', 'M', '0', '1'}
)

// crcWriter updates a running CRC32 with everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// crcReader updates a running CRC32 with everything read through it. It
// sits above the buffered reader so lookahead never hashes bytes the
// parser has not consumed (the footer must stay out of the sum).
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// SaveState serializes the decomposer's streaming state (format v3,
// with the CRC footer). It must be called between slices (never
// concurrently with ProcessSlice).
func (d *Decomposer) SaveState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write(stateMagic[:]); err != nil {
		return err
	}
	writeU64 := func(v uint64) error { return binary.Write(cw, binary.LittleEndian, v) }
	if err := writeU64(uint64(d.n)); err != nil {
		return err
	}
	for _, dim := range d.dims {
		if err := writeU64(uint64(dim)); err != nil {
			return err
		}
	}
	if err := writeU64(uint64(d.k)); err != nil {
		return err
	}
	if err := writeU64(uint64(d.t)); err != nil {
		return err
	}
	// Factors, Gram invariants, z-row Grams.
	for m := range d.a {
		if err := writeMatrix(cw, d.a[m]); err != nil {
			return err
		}
		if err := writeMatrix(cw, d.c[m]); err != nil {
			return err
		}
		if err := writeMatrix(cw, d.cz[m]); err != nil {
			return err
		}
	}
	if err := writeMatrix(cw, d.g); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, d.s); err != nil {
		return err
	}
	// Temporal history.
	if err := writeU64(uint64(len(d.sHist))); err != nil {
		return err
	}
	for _, row := range d.sHist {
		if err := binary.Write(cw, binary.LittleEndian, row); err != nil {
			return err
		}
	}
	// spCP nz sets (presence flag + per-mode lists).
	if d.prevNZ == nil {
		if err := writeU64(0); err != nil {
			return err
		}
	} else {
		if err := writeU64(1); err != nil {
			return err
		}
		for _, nz := range d.prevNZ {
			if err := writeU64(uint64(len(nz))); err != nil {
				return err
			}
			if err := binary.Write(cw, binary.LittleEndian, nz); err != nil {
				return err
			}
		}
	}
	// Layout presence flag (v3): always 0, see the format note above.
	if err := writeU64(0); err != nil {
		return err
	}
	// CRC footer over magic + payload (not hashed itself).
	if err := binary.Write(bw, binary.LittleEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

// RestoreState loads a checkpoint written by SaveState into this
// decomposer. The decomposer must have been created with the same dims
// and rank; mismatches, truncations, and (for v2) checksum failures are
// rejected, leaving a partially overwritten but structurally intact
// decomposer — callers recovering from a bad checkpoint should restore
// another or create a fresh decomposer. Every length field is validated
// against the receiver before it drives an allocation, so arbitrary
// (fuzzed) input cannot trigger huge allocations.
func (d *Decomposer) RestoreState(r io.Reader) error {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	var withCRC, withLayout bool
	switch magic {
	case stateMagic:
		withCRC, withLayout = true, true
	case stateMagicV2:
		withCRC = true
	case stateMagicV1:
	default:
		return fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(cr, binary.LittleEndian, &v)
		return v, err
	}
	n, err := readU64()
	if err != nil {
		return err
	}
	if int(n) != d.n {
		return fmt.Errorf("core: checkpoint has %d modes, decomposer %d", n, d.n)
	}
	for m := 0; m < d.n; m++ {
		dim, err := readU64()
		if err != nil {
			return err
		}
		if int(dim) != d.dims[m] {
			return fmt.Errorf("core: checkpoint mode %d length %d ≠ %d", m, dim, d.dims[m])
		}
	}
	k, err := readU64()
	if err != nil {
		return err
	}
	if int(k) != d.k {
		return fmt.Errorf("core: checkpoint rank %d ≠ %d", k, d.k)
	}
	t, err := readU64()
	if err != nil {
		return err
	}
	for m := 0; m < d.n; m++ {
		if err := readMatrix(cr, d.a[m]); err != nil {
			return err
		}
		if err := readMatrix(cr, d.c[m]); err != nil {
			return err
		}
		if err := readMatrix(cr, d.cz[m]); err != nil {
			return err
		}
	}
	if err := readMatrix(cr, d.g); err != nil {
		return err
	}
	if err := binary.Read(cr, binary.LittleEndian, d.s); err != nil {
		return err
	}
	histLen, err := readU64()
	if err != nil {
		return err
	}
	if histLen != t {
		return fmt.Errorf("core: checkpoint has %d temporal rows for t=%d", histLen, t)
	}
	// Rows are appended as they arrive instead of allocating histLen
	// slots up front: a corrupt header claiming an astronomical t fails
	// at EOF after reading only what the input actually contains.
	sHist := make([][]float64, 0, min(int(histLen), 1024))
	for i := uint64(0); i < histLen; i++ {
		row := make([]float64, d.k)
		if err := binary.Read(cr, binary.LittleEndian, row); err != nil {
			return err
		}
		sHist = append(sHist, row)
	}
	hasNZ, err := readU64()
	if err != nil {
		return err
	}
	var prevNZ [][]int32
	switch hasNZ {
	case 0:
	case 1:
		prevNZ = make([][]int32, d.n)
		for m := 0; m < d.n; m++ {
			cnt, err := readU64()
			if err != nil {
				return err
			}
			if cnt > uint64(d.dims[m]) {
				return fmt.Errorf("core: checkpoint nz set of mode %d has %d entries for dim %d", m, cnt, d.dims[m])
			}
			nz := make([]int32, cnt)
			if err := binary.Read(cr, binary.LittleEndian, nz); err != nil {
				return err
			}
			prevNZ[m] = nz
		}
	default:
		return fmt.Errorf("core: checkpoint nz presence flag %d is not 0 or 1", hasNZ)
	}
	if withLayout {
		hasLayout, err := readU64()
		if err != nil {
			return err
		}
		switch hasLayout {
		case 0:
		case 1:
			if err := skipLegacyLayout(cr, d.dims); err != nil {
				return fmt.Errorf("core: checkpoint legacy layout section: %w", err)
			}
		default:
			return fmt.Errorf("core: checkpoint layout presence flag %d is not 0 or 1", hasLayout)
		}
	}
	if withCRC {
		sum := cr.crc // everything hashed so far: magic + payload
		var footer uint32
		if err := binary.Read(br, binary.LittleEndian, &footer); err != nil {
			return fmt.Errorf("core: reading checkpoint checksum: %w", err)
		}
		if footer != sum {
			return fmt.Errorf("core: checkpoint checksum mismatch (stored %08x, computed %08x)", footer, sum)
		}
	}
	d.sHist = sHist
	d.prevNZ = prevNZ
	d.t = int(t)
	return nil
}

// skipLegacyLayout reads past the learned-layout section an older
// writer stored behind a presence flag of 1: three counters, then per
// mode a float64 histogram over the mode's rows, four 8-byte scalars, a
// permutation flag and (flag 1) an int32 permutation over the rows. All
// sizes come from dims, never from the input; r is the checksummed
// reader, so the skipped bytes still count toward the CRC.
func skipLegacyLayout(r io.Reader, dims []int) error {
	skip := func(n int) error {
		_, err := io.CopyN(io.Discard, r, int64(n))
		return err
	}
	if err := skip(3 * 8); err != nil {
		return err
	}
	for m, dim := range dims {
		if err := skip(8*dim + 4*8); err != nil {
			return err
		}
		var hasPerm uint64
		if err := binary.Read(r, binary.LittleEndian, &hasPerm); err != nil {
			return err
		}
		switch hasPerm {
		case 0:
		case 1:
			if err := skip(4 * dim); err != nil {
				return err
			}
		default:
			return fmt.Errorf("perm presence flag %d of mode %d is not 0 or 1", hasPerm, m)
		}
	}
	return nil
}

func writeMatrix(w io.Writer, m *dense.Matrix) error {
	for i := 0; i < m.Rows; i++ {
		if err := binary.Write(w, binary.LittleEndian, m.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

func readMatrix(r io.Reader, m *dense.Matrix) error {
	for i := 0; i < m.Rows; i++ {
		if err := binary.Read(r, binary.LittleEndian, m.Row(i)); err != nil {
			return err
		}
	}
	return nil
}
