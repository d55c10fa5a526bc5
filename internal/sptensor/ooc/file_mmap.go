//go:build (linux || darwin) && !spblk_pread

package ooc

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile is the default backend on unix hosts: the whole file is
// mapped read-only and section returns zero-copy subslices, so block
// re-reads cost page-cache hits rather than syscalls. Build with
// -tags spblk_pread to force the portable pread backend instead.
type mmapFile struct {
	data []byte
}

func openBlockFile(path string) (blockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 {
		// A zero-length mmap is an error on some kernels; an empty
		// file is invalid anyway, let the header check say so.
		return &mmapFile{}, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("ooc: mmap %s: %w", path, err)
	}
	return &mmapFile{data: data}, nil
}

func (f *mmapFile) section(_ *[]byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(f.data)) {
		return nil, fmt.Errorf("ooc: section [%d,%d) outside mapped %d bytes", off, off+n, len(f.data))
	}
	return f.data[off : off+n], nil
}

func (f *mmapFile) size() int64 { return int64(len(f.data)) }

func (f *mmapFile) close() error {
	if f.data == nil {
		return nil
	}
	data := f.data
	f.data = nil
	return syscall.Munmap(data)
}
