// Package resilience defines the fault-tolerance layer of the streaming
// runtime: recovery policies and counters for the guarded slice
// processing in internal/core, crash-safe checkpoint management, and
// the injection points the deterministic fault harness
// (internal/resilience/faultinject) hooks into.
//
// The design goal is that a long-running stream degrades instead of
// dying: a non-SPD Gram matrix triggers a bounded ridge-escalation
// ladder, a NaN-corrupted slice or a panicking kernel rolls the
// decomposer back to its last-good in-memory snapshot and applies a
// configurable policy, and checkpoints are written atomically with an
// integrity footer so a crash mid-write never leaves a state file that
// restores silently wrong.
package resilience

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Policy selects what guarded slice processing does after the in-slice
// recovery ladder is exhausted and the decomposer has been rolled back
// to its last-good snapshot.
type Policy int

const (
	// Abort returns the error to the caller (the default). The
	// decomposer is left at the last-good snapshot, so the caller can
	// checkpoint or resume it.
	Abort Policy = iota
	// RetrySlice re-runs the whole slice once from the snapshot, then
	// aborts. Useful when failures are
	// transient (stalls, injected faults, scheduling noise).
	RetrySlice
	// SkipSlice re-runs like RetrySlice, then drops the slice and
	// continues the stream, surfacing ErrSliceSkipped and counting the
	// skip in Stats.
	SkipSlice
)

// policyNames is the one spelling of each policy (its text form).
var policyNames = [...]string{Abort: "abort", RetrySlice: "retry", SkipSlice: "skip"}

// String names the policy.
func (p Policy) String() string {
	if b, err := p.MarshalText(); err == nil {
		return string(b)
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses "abort", "retry", or "skip".
func ParsePolicy(s string) (Policy, error) {
	for p, name := range policyNames {
		if s == name {
			return Policy(p), nil
		}
	}
	return Abort, fmt.Errorf("resilience: unknown policy %q (want abort, retry, skip)", s)
}

// MarshalText writes the name ParsePolicy reads.
func (p Policy) MarshalText() ([]byte, error) {
	if p < 0 || int(p) >= len(policyNames) {
		return nil, fmt.Errorf("resilience: unknown policy %d", int(p))
	}
	return []byte(policyNames[p]), nil
}

// UnmarshalText parses with ParsePolicy.
func (p *Policy) UnmarshalText(text []byte) (err error) {
	*p, err = ParsePolicy(string(text))
	return err
}

// Structured error values. Callers match with errors.Is; the wrapping
// errors carry the slice index and root cause.
var (
	// ErrDiverged reports that the post-slice health check found
	// non-finite factors or an exploding convergence measure.
	ErrDiverged = errors.New("resilience: decomposition diverged")
	// ErrSliceSkipped reports that a slice was dropped under the
	// SkipSlice policy after its retries were exhausted. The decomposer
	// state is the last-good snapshot; the stream can continue.
	ErrSliceSkipped = errors.New("resilience: slice skipped")
	// ErrNoCheckpoint reports that a checkpoint directory held no
	// restorable checkpoint.
	ErrNoCheckpoint = errors.New("resilience: no valid checkpoint found")
)

// Config enables guarded slice processing when set on core.Options.
// The zero value is usable: Abort policy, input and factor health
// checks on, and no slice deadline. The recovery ladder (three ridge
// escalations from 1e-6·tr(Φ)/K, ×100 per rung) and the one slice
// re-run of RetrySlice/SkipSlice are constants of internal/core.
type Config struct {
	// Policy applied after in-slice recovery fails.
	Policy Policy
	// SliceTimeout, when positive, is a per-slice deadline; a slice
	// exceeding it is abandoned at the next iteration boundary, rolled
	// back, and handed to the policy.
	SliceTimeout time.Duration
	// MaxDelta is the divergence guard on the per-slice convergence
	// measure δ; a slice finishing with δ > MaxDelta (or non-finite δ or
	// factors) fails the health check with ErrDiverged. Default 1e9.
	MaxDelta float64
	// DisableInputScan skips the pre-processing scan that rejects slices
	// with non-finite values or out-of-range coordinates. With the scan
	// off such slices reach the kernels, where NaNs surface as solver
	// failures and corrupt indices as contained panics — the harder
	// recovery paths the fault-injection tests exercise.
	DisableInputScan bool
	// Checkpoint, when non-nil, is the checkpoint manager of whichever
	// loop owns the run: ProcessStreamContext calls MaybeWrite after
	// every successfully processed slice, and the ingest pipeline
	// writes through it after flushing its WAL, the checkpoint carrying
	// the WAL cursor.
	Checkpoint *Manager
	// FaultHook, when non-nil, is invoked at the named stages of guarded
	// slice processing; a non-nil return is treated as that stage
	// failing. Exists for the deterministic fault-injection harness and
	// must be nil in production.
	FaultHook Hook
}

// WithDefaults returns a copy with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.MaxDelta <= 0 {
		c.MaxDelta = 1e9
	}
	return c
}

// Stage identifies an injection point inside guarded slice processing.
type Stage string

const (
	// StageBegin fires once per slice attempt, before the Pre work.
	StageBegin Stage = "begin"
	// StageIterate fires between inner iterations.
	StageIterate Stage = "iterate"
	// StageFactorize fires before every Φ Cholesky factorization; an
	// injected error is handled exactly like a factorization failure
	// (including the ridge-escalation ladder for ErrNotSPD).
	StageFactorize Stage = "factorize"
)

// Fault describes one injection point invocation.
type Fault struct {
	Stage Stage
	// Slice is the decomposer's slice counter (Decomposer.T()).
	Slice int
	// Iter is the inner iteration (0 during begin).
	Iter int
	// Attempt is the slice attempt number (0 = first run, >0 retries).
	Attempt int
}

// Hook is a fault-injection callback; returning a non-nil error makes
// the stage fail with it. A Hook may also sleep (to simulate stalls) or
// panic (to simulate kernel crashes).
type Hook func(Fault) error

// Stats are the per-stream recovery counters, readable via
// Decomposer.ResilienceStats. All counters are cumulative over the
// decomposer's lifetime.
type Stats struct {
	// SliceRetries counts whole-slice re-runs after a rollback.
	SliceRetries int
	// RidgeRetries counts ridge-escalation factorization attempts.
	RidgeRetries int
	// RidgeRecoveries counts factorizations rescued by the ladder.
	RidgeRecoveries int
	// PanicsRecovered counts kernel panics converted to slice errors.
	PanicsRecovered int
	// SlicesSkipped counts slices dropped under SkipSlice.
	SlicesSkipped int
	// Rollbacks counts restores of the last-good in-memory snapshot.
	Rollbacks int
	// HealthFailures counts post-slice health-check failures
	// (non-finite factors, exploding δ).
	HealthFailures int
	// InputRejects counts slices rejected by the pre-processing scan.
	InputRejects int
	// Timeouts counts per-slice deadline expiries.
	Timeouts int
	// Cancellations counts slices abandoned because the caller's
	// context was cancelled.
	Cancellations int
	// CheckpointWrites and CheckpointErrors count the writes of the
	// Config.Checkpoint manager, whichever loop made them (see
	// Manager.Counts).
	CheckpointWrites int
	CheckpointErrors int
}

// renameFile is the rename step of AtomicWriteFile, indirected so the
// durability tests can inject a rename that fails (a crash between the
// temp write and the publish). Production code never replaces it.
var renameFile = os.Rename

// AtomicWriteFile writes a file via a temp file in the same directory,
// fsyncs it, renames it over path, and finally fsyncs the directory
// itself, so readers never observe a torn or partial file — an
// interrupted write leaves the previous content (or nothing) in place.
// The directory sync matters for crash durability: rename alone only
// updates the in-memory directory entry, and a power loss right after
// it can roll the directory back to the old name on some filesystems,
// losing the checkpoint the caller was just told exists.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := renameFile(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// SyncDir fsyncs a directory, making a just-renamed or just-created
// entry durable. Filesystems that refuse to fsync directories (some
// network mounts) degrade to rename-only durability rather than
// failing the write. Exported for the ingest WAL, which follows the
// same create/rotate discipline for its segment files.
func SyncDir(dir string) error { return syncDir(dir) }

// syncDir fsyncs a directory, making a just-renamed entry durable.
// Filesystems that refuse to fsync directories (some network mounts)
// degrade to rename-only durability rather than failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
