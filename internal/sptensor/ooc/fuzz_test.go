package ooc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spstream/internal/sptensor"
)

// memFile lets the fuzzer exercise the full reader stack without disk
// I/O per exec; it is semantically the mmap backend over a byte slice.
type memFile struct{ data []byte }

func (f *memFile) section(_ *[]byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(f.data)) {
		return nil, fmt.Errorf("ooc: section [%d,%d) outside %d bytes", off, off+n, len(f.data))
	}
	return f.data[off : off+n], nil
}

func (f *memFile) size() int64  { return int64(len(f.data)) }
func (f *memFile) close() error { return nil }

// FuzzBlockReader drives arbitrary bytes through Open + full block
// iteration. The reader's contract under corruption — forged headers,
// truncated sections, bad CRCs, out-of-range counts, overlapping or
// duplicated block extents — is to return an error, never to panic or
// to size an allocation from an unvalidated field. Valid files must
// round-trip.
func FuzzBlockReader(f *testing.F) {
	// Seed with a couple of valid files and targeted mutations so the
	// fuzzer starts on the interesting surfaces (footer, index, CRCs).
	seed := func(x *sptensor.Tensor, target int) []byte {
		path := filepath.Join(f.TempDir(), "seed.spblk")
		if err := WriteTensor(path, x, target); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	x := sptensor.New(7, 5, 6)
	coord := []int32{0, 0, 0}
	for e := 0; e < 40; e++ {
		coord[0], coord[1], coord[2] = int32(e%7), int32((e*3)%5), int32((e*5)%6)
		x.Append(coord, float64(e)-11.5)
	}
	valid := seed(x, 8)
	f.Add(valid)
	f.Add(seed(x, 1<<20))
	f.Add([]byte(Magic))
	f.Add([]byte(Magic + EndMagic))
	trunc := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(trunc)
	flip := append([]byte(nil), valid...)
	flip[len(flip)-10] ^= 0xff
	f.Add(flip)
	crc := append([]byte(nil), valid...)
	crc[len(Magic)] ^= 0xff
	f.Add(crc)
	// Forge a huge nnz into the trailer-addressed footer offset field.
	forged := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(forged[len(forged)-16:], uint64(len(Magic)))
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		r, err := newReader(&memFile{data: data})
		if err != nil {
			return
		}
		defer r.Close()
		total := 0
		for b := 0; b < r.Blocks(); b++ {
			blk, err := r.Block(b)
			if err != nil {
				return
			}
			if err := blk.Validate(); err != nil {
				t.Fatalf("decoded block failed tensor validation: %v", err)
			}
			total += blk.NNZ()
		}
		if total != r.NNZ() {
			t.Fatalf("blocks held %d nonzeros, reader declared %d", total, r.NNZ())
		}
		// A fully readable file must round-trip through materialize.
		if _, err := sptensor.MaterializeBlocks(r); err != nil {
			t.Fatalf("MaterializeBlocks on readable file: %v", err)
		}
		if bytes.Equal(data, valid) && total != x.NNZ() {
			t.Fatalf("valid seed decoded %d nonzeros, want %d", total, x.NNZ())
		}
	})
}
