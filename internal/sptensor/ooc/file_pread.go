//go:build !((linux || darwin) && !spblk_pread)

package ooc

import (
	"fmt"
	"os"
)

// preadFile is the portable fallback backend (and the forced choice
// under -tags spblk_pread): sections are read with positional reads
// into the caller's scratch. Semantically identical to the mmap
// backend, just one copy slower per section.
type preadFile struct {
	f  *os.File
	sz int64
}

func openBlockFile(path string) (blockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &preadFile{f: f, sz: st.Size()}, nil
}

func (f *preadFile) section(scratch *[]byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > f.sz {
		return nil, fmt.Errorf("ooc: section [%d,%d) outside file of %d bytes", off, off+n, f.sz)
	}
	if scratch == nil {
		scratch = new([]byte)
	}
	if int64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := f.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (f *preadFile) size() int64 { return f.sz }

func (f *preadFile) close() error { return f.f.Close() }
