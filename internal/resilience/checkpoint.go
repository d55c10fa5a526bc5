package resilience

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// StateWriter is the serialization half of a checkpointable decomposer
// (core.Decomposer satisfies it).
type StateWriter interface {
	SaveState(w io.Writer) error
}

// Manager writes crash-safe periodic checkpoints into a directory and
// restores the newest valid one. Files are named ckpt-<slice>.spstrm;
// each write is atomic (temp file + fsync + rename), so the directory
// only ever contains complete checkpoints, and the state format's CRC
// footer rejects any that were corrupted at rest. It counts its own
// writes, so the counts hold whichever loop writes through it.
type Manager struct {
	dir   string
	every int
	keep  int

	writes, errs atomic.Int64
}

// checkpointExt is the checkpoint file suffix.
const checkpointExt = ".spstrm"

// NewManager creates (if needed) the checkpoint directory and returns a
// manager that checkpoints every `every` slices (≤0 means every slice)
// and retains the newest `keep` files (≤0 means 2). Keeping more than
// one file means a checkpoint corrupted at rest still leaves an older
// restorable one.
func NewManager(dir string, every, keep int) (*Manager, error) {
	if every <= 0 {
		every = 1
	}
	if keep <= 0 {
		keep = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepStaleTemps(dir)
	return &Manager{dir: dir, every: every, keep: keep}, nil
}

// sweepStaleTemps deletes temp files a crashed AtomicWriteFile left
// behind (".<name>.tmp-*"). They are invisible to ListCheckpoints but
// would otherwise accumulate forever, one per crash mid-write. Startup
// is the only safe moment: no writer is mid-rename.
func sweepStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Dir returns the checkpoint directory.
func (m *Manager) Dir() string { return m.dir }

// Path returns the checkpoint file path for slice counter t.
func (m *Manager) Path(t int) string {
	return filepath.Join(m.dir, fmt.Sprintf("ckpt-%09d%s", t, checkpointExt))
}

// Due reports whether slice counter t is a multiple of the interval.
func (m *Manager) Due(t int) bool { return t > 0 && t%m.every == 0 }

// MaybeWrite checkpoints the state when t is Due. It returns the
// written path ("" when the interval did not trigger).
func (m *Manager) MaybeWrite(t int, s StateWriter) (string, error) {
	if !m.Due(t) {
		return "", nil
	}
	return m.Write(t, s)
}

// Write checkpoints the state for slice counter t atomically and prunes
// old checkpoints beyond the retention count.
func (m *Manager) Write(t int, s StateWriter) (string, error) {
	path := m.Path(t)
	if err := AtomicWriteFile(path, s.SaveState); err != nil {
		m.errs.Add(1)
		return "", err
	}
	m.writes.Add(1)
	m.prune()
	return path, nil
}

// Counts returns how many Writes succeeded and failed. Safe for
// concurrent use.
func (m *Manager) Counts() (writes, errors int) {
	return int(m.writes.Load()), int(m.errs.Load())
}

// Checkpoints returns the checkpoint paths in the directory, newest
// (highest slice counter) first.
func (m *Manager) Checkpoints() []string {
	return ListCheckpoints(m.dir)
}

// ListCheckpoints returns the checkpoint paths under dir, newest first.
func ListCheckpoints(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	type ck struct {
		path string
		t    int
	}
	var cks []ck
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, checkpointExt) {
			continue
		}
		t, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), checkpointExt))
		if err != nil {
			continue
		}
		cks = append(cks, ck{filepath.Join(dir, name), t})
	}
	sort.Slice(cks, func(a, b int) bool { return cks[a].t > cks[b].t })
	out := make([]string, len(cks))
	for i, c := range cks {
		out[i] = c.path
	}
	return out
}

// prune removes all but the newest keep checkpoints.
func (m *Manager) prune() {
	cks := m.Checkpoints()
	for _, path := range cks[min(m.keep, len(cks)):] {
		os.Remove(path)
	}
}

// RestoreLatest tries the checkpoints newest-first, calling restore on
// each until one succeeds (the restore callback is expected to verify
// integrity — core.RestoreState checks the CRC footer). It returns the
// path that restored, or ErrNoCheckpoint wrapped with the last failure.
func (m *Manager) RestoreLatest(restore func(io.Reader) error) (string, error) {
	return RestoreNewest(m.dir, restore)
}

// RestoreNewest is RestoreLatest over an arbitrary directory.
func RestoreNewest(dir string, restore func(io.Reader) error) (string, error) {
	var lastErr error
	for _, path := range ListCheckpoints(dir) {
		f, err := os.Open(path)
		if err != nil {
			lastErr = err
			continue
		}
		err = restore(f)
		f.Close()
		if err == nil {
			return path, nil
		}
		lastErr = fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if lastErr != nil {
		return "", fmt.Errorf("%w: %v", ErrNoCheckpoint, lastErr)
	}
	return "", ErrNoCheckpoint
}
