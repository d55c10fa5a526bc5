package faultinject

import (
	"io/fs"
	"os"
	"sync"
	"syscall"

	"spstream/internal/ingest/wal"
)

// FSFaultPlan schedules disk faults against the WAL's filesystem seam,
// keyed on global write-operation ordinals (every Write and Sync call
// across all files increments the counter). Deterministic: the same
// plan against the same workload produces the same failure every run.
type FSFaultPlan struct {
	// ShortWriteAt maps a write ordinal to the number of bytes actually
	// written before the fault — a torn record. The write returns an
	// I/O error after persisting the prefix.
	ShortWriteAt map[uint64]int
	// FailSyncAt holds sync ordinals whose fsync fails (EIO). Ordinals
	// are shared with writes: the counter counts both.
	FailSyncAt map[uint64]bool
	// ENOSPCFromWrite, when positive, makes every write at or after
	// that ordinal fail with ENOSPC, writing nothing — the disk-full
	// cliff.
	ENOSPCFromWrite uint64
	// FailTruncate makes Truncate fail (EIO). Combined with a short
	// write it defeats the WAL's append rollback, leaving a genuinely
	// torn record on disk for crash recovery to deal with.
	FailTruncate bool
}

// FaultFS wraps a wal.FS and injects the plan's faults. Ordinal
// observation (Writes, Syncs) is safe for concurrent use.
type FaultFS struct {
	inner wal.FS
	plan  FSFaultPlan

	mu  sync.Mutex
	ord uint64 // global write/sync operation counter, first op = 1

	writes int64
	syncs  int64
}

// NewFaultFS wraps the real filesystem (or any wal.FS) with the plan.
func NewFaultFS(inner wal.FS, plan FSFaultPlan) *FaultFS {
	if inner == nil {
		inner = wal.OSFS()
	}
	return &FaultFS{inner: inner, plan: plan}
}

// Ops returns how many write and sync operations have been observed.
func (f *FaultFS) Ops() (writes, syncs int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *FaultFS) Rename(o, n string) error                   { return f.inner.Rename(o, n) }
func (f *FaultFS) Remove(name string) error                   { return f.inner.Remove(name) }
func (f *FaultFS) Truncate(name string, size int64) error {
	if f.plan.FailTruncate {
		return &os.PathError{Op: "truncate", Path: name, Err: syscall.EIO}
	}
	return f.inner.Truncate(name, size)
}
func (f *FaultFS) Stat(name string) (fs.FileInfo, error) { return f.inner.Stat(name) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}
func (f *FaultFS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// faultFile interposes on the data-plane operations.
type faultFile struct {
	fs    *FaultFS
	inner wal.File
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.inner.Read(p) }
func (ff *faultFile) Close() error               { return ff.inner.Close() }

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	ff.fs.ord++
	ff.fs.writes++
	ord := ff.fs.ord
	plan := ff.fs.plan
	ff.fs.mu.Unlock()

	if plan.ENOSPCFromWrite > 0 && ord >= plan.ENOSPCFromWrite {
		return 0, &os.PathError{Op: "write", Path: "faultfs", Err: syscall.ENOSPC}
	}
	if n, torn := plan.ShortWriteAt[ord]; torn {
		if n > len(p) {
			n = len(p)
		}
		// Persist the prefix, then fail — the crash shape that leaves a
		// torn record on disk for recovery to truncate.
		if n > 0 {
			if _, err := ff.inner.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return n, &os.PathError{Op: "write", Path: "faultfs", Err: syscall.EIO}
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	ff.fs.ord++
	ff.fs.syncs++
	ord := ff.fs.ord
	plan := ff.fs.plan
	ff.fs.mu.Unlock()

	if plan.FailSyncAt[ord] {
		return &os.PathError{Op: "sync", Path: "faultfs", Err: syscall.EIO}
	}
	return ff.inner.Sync()
}
