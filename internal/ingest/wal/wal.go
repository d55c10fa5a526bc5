// Package wal is the durable spill tier of the ingest pipeline: a
// segment-based write-ahead log for slices the bounded in-memory queue
// cannot hold. Records are length-prefixed and CRC32-checked
// individually, segments are fixed-size append-only files created and
// rotated under the same fsync-the-directory discipline as the
// checkpoint layer, and appends group-commit — fsync happens at a
// configurable interval rather than per record, bounding both the
// fsync rate and the data-loss window of a hard crash.
//
// The log keeps no consumer position of its own. The consumer's cursor —
// the highest sequence number its state already includes — is stored
// in the decomposer checkpoint, under that file's checksum; a restart
// hands the restored cursor to SeekTo, so every record after it is
// applied exactly once and the recovered stream converges to the same
// factors as an uncrashed run, and Release collects the segments no
// retained checkpoint can replay from. All filesystem access flows
// through the FS seam so the fault-injection harness
// (internal/resilience/faultinject) can produce short writes, failed
// fsyncs, torn final records, and ENOSPC deterministically.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spstream/internal/resilience"
)

// FS is the filesystem seam. Production uses OSFS; the fault harness
// wraps it to inject disk failures at exact operation ordinals.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making created/renamed entries
	// durable (the syncDir discipline of the checkpoint layer).
	SyncDir(dir string) error
}

// File is the subset of *os.File the log needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// osFS is the production FS.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) SyncDir(dir string) error { return resilience.SyncDir(dir) }

// OSFS returns the production filesystem.
func OSFS() FS { return osFS{} }

// Structured errors.
var (
	// ErrFull reports that appending would exceed Options.MaxBytes —
	// the log's own disk budget, the soft form of ENOSPC.
	ErrFull = errors.New("wal: log is full (MaxBytes reached)")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrTornRecord reports a record cut short by a crash mid-write —
	// expected at the tail of the newest segment, where recovery
	// truncates it away.
	ErrTornRecord = errors.New("wal: torn record (truncated mid-write)")
	// ErrCorruptRecord reports a record whose CRC or framing is invalid
	// — at-rest corruption, never silently returned to the consumer.
	ErrCorruptRecord = errors.New("wal: corrupt record")
)

// LossError reports records the reader had to skip because at-rest
// corruption made part of a segment unreadable. The consumer accounts
// Lost records as shed and continues at the next segment.
type LossError struct {
	// Lost is how many appended records became unreachable.
	Lost uint64
	// Err is the underlying decode failure.
	Err error
}

func (e *LossError) Error() string {
	return fmt.Sprintf("wal: %d record(s) lost to corruption: %v", e.Lost, e.Err)
}

func (e *LossError) Unwrap() error { return e.Err }

// Segment naming.
const (
	segPrefix = "wal-"
	segExt    = ".seg"
)

// segMagic identifies a segment file and its format version.
var segMagic = [8]byte{'S', 'P', 'W', 'A', 'L', 'S', '0', '1'}

// segHeaderSize is magic + first sequence number.
const segHeaderSize = 8 + 8

// recHeaderSize is the per-record frame: u32 payload length + u32
// CRC32(payload).
const recHeaderSize = 4 + 4

// Options parameterizes Open. Dir is required; every zero field gets a
// production-safe default.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// SegmentBytes is the rotation threshold. Default 4 MiB, or a
	// quarter of MaxBytes when that is smaller: disk comes back a whole
	// segment at a time, so a cap has to span several of them or it is
	// reached with one half-consumed segment on disk.
	SegmentBytes int64
	// MaxBytes, when positive, caps the total bytes across segments;
	// Append returns ErrFull past it so the caller can shed instead of
	// filling the disk.
	MaxBytes int64
	// MaxRecordBytes bounds a single record; oversized appends are
	// rejected and oversized lengths read from disk are treated as
	// corruption, never allocated. Default 64 MiB.
	MaxRecordBytes int
	// SyncEvery is the group-commit interval: an Append fsyncs only
	// when this much time has passed since the last fsync. Zero means
	// every append fsyncs (strict durability).
	SyncEvery time.Duration
	// FS replaces the filesystem (fault injection). Default OSFS.
	FS FS
	// Clock replaces time.Now (group-commit interval tests).
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
		if o.MaxBytes > 0 && o.MaxBytes/4 < o.SegmentBytes {
			o.SegmentBytes = o.MaxBytes / 4
		}
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = OSFS()
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// segment is the in-memory index entry for one segment file.
type segment struct {
	index    int64  // file-name ordinal
	firstSeq uint64 // sequence number of its first record
	count    uint64 // valid records
	size     int64  // valid bytes (logical end; the file may be longer before recovery truncates)
}

func (s *segment) lastSeq() uint64 { return s.firstSeq + s.count - 1 }

// Recovery reports what Open found on disk.
type Recovery struct {
	// Segments and Records are the valid state recovered.
	Segments int
	Records  uint64
	// TruncatedBytes is how much torn tail was cut off the newest
	// segment (a crash mid-append).
	TruncatedBytes int64
	// LostRecords counts records unreachable behind mid-segment
	// corruption (skipped, never returned to the consumer).
	LostRecords uint64
}

// Log is the write-ahead log. One writer (Append) and one reader
// (Next) may run concurrently with each other and with Release;
// all state is guarded by one mutex — the log is disk-bound, not
// lock-bound.
type Log struct {
	opts Options

	mu     sync.Mutex
	segs   []*segment
	w      File   // active append handle (last segment)
	wPath  string // its path
	closed bool
	broken error // set when a failed append could not be rolled back

	nextSeq  uint64 // seq the next Append gets, unless below seqFloor
	seqFloor uint64 // the lowest seq an Append may take (SeekTo)
	readSeq  uint64 // seq the next Next returns
	dirty    bool   // unsynced appends
	lastSync time.Time

	// read cursor
	rFile  File
	rBuf   *bufio.Reader
	rSeg   int // index into segs
	rInSeg uint64

	scratch []byte
}

// Open opens (creating if needed) the log in opts.Dir, validates every
// segment record by record and truncates a torn tail off the newest
// segment. The read cursor starts at the oldest record on disk; a
// consumer resuming from a checkpoint follows with SeekTo(cursor).
func Open(opts Options) (*Log, Recovery, error) {
	opts = opts.withDefaults()
	var rec Recovery
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{opts: opts, nextSeq: 1, readSeq: 1, lastSync: opts.Clock()}

	entries, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, rec, fmt.Errorf("wal: readdir: %w", err)
	}
	var indices []int64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segExt), 10, 64)
		if err != nil {
			continue
		}
		indices = append(indices, n)
	}
	sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })

	for i, idx := range indices {
		last := i == len(indices)-1
		seg, tornBytes, lost, err := l.scanSegment(idx, last)
		if err != nil {
			if last {
				// An unreadable newest segment (e.g. a header cut short
				// by a crash between create and the first append) holds
				// no records; drop it and recreate below.
				_ = opts.FS.Remove(l.segPath(idx))
				continue
			}
			return nil, rec, fmt.Errorf("wal: segment %d: %w", idx, err)
		}
		rec.TruncatedBytes += tornBytes
		rec.LostRecords += lost
		l.segs = append(l.segs, seg)
		rec.Records += seg.count
	}
	rec.Segments = len(l.segs)

	if len(l.segs) == 0 {
		if err := l.createSegment(1, 1); err != nil {
			return nil, rec, err
		}
	} else {
		tail := l.segs[len(l.segs)-1]
		l.nextSeq = tail.firstSeq + tail.count
		l.readSeq = l.segs[0].firstSeq
		w, err := opts.FS.OpenFile(l.segPath(tail.index), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, rec, fmt.Errorf("wal: reopen tail segment: %w", err)
		}
		l.w, l.wPath = w, l.segPath(tail.index)
	}
	l.rSeg = -1
	return l, rec, nil
}

// segPath names segment idx.
func (l *Log) segPath(idx int64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%09d%s", segPrefix, idx, segExt))
}

// scanSegment validates one segment record by record. For the last
// (append) segment a torn final record is truncated away; for earlier
// segments it is corruption. A CRC failure mid-segment ends the
// segment's valid range there; the records behind it are lost and
// counted.
func (l *Log) scanSegment(idx int64, last bool) (*segment, int64, uint64, error) {
	path := l.segPath(idx)
	f, err := l.opts.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	info, err := l.opts.FS.Stat(path)
	if err != nil {
		return nil, 0, 0, err
	}
	fileSize := info.Size()

	br := bufio.NewReader(f)
	firstSeq, err := readSegHeader(br)
	if err != nil {
		return nil, 0, 0, err
	}
	seg := &segment{index: idx, firstSeq: firstSeq, size: segHeaderSize}
	var lost uint64
	for {
		payload, err := readRecord(br, l.opts.MaxRecordBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			if last {
				// The append segment must END at its last valid record
				// or future appends land behind unreadable bytes: cut
				// the damage off. A torn record is the expected crash
				// shape (nothing lost — the append never completed);
				// corruption means at-rest damage destroyed records
				// (the count is unknowable; report at least one).
				torn := fileSize - seg.size
				if terr := l.opts.FS.Truncate(path, seg.size); terr != nil {
					return nil, 0, 0, fmt.Errorf("truncating damaged tail: %w", terr)
				}
				if errors.Is(err, ErrTornRecord) {
					return seg, torn, 0, nil
				}
				return seg, torn, 1, nil
			}
			// Mid-segment corruption in a sealed segment: framing is
			// unreliable from here on, so the rest of the segment is
			// unreachable. The lost count is unknowable; report at
			// least one.
			lost = 1
			break
		}
		seg.count++
		seg.size += int64(recHeaderSize + len(payload))
	}
	return seg, 0, lost, nil
}

// createSegment makes segment idx with the given first sequence number
// durable: write the header, fsync the file, fsync the directory.
func (l *Log) createSegment(idx int64, firstSeq uint64) error {
	path := l.segPath(idx)
	f, err := l.opts.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header sync: %w", err)
	}
	if err := l.opts.FS.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment dir sync: %w", err)
	}
	l.segs = append(l.segs, &segment{index: idx, firstSeq: firstSeq, size: segHeaderSize})
	l.w, l.wPath = f, path
	return nil
}

// Append writes one record and returns its sequence number. Durability
// follows the group-commit policy (Options.SyncEvery); call Sync to
// force it. A failed write is rolled back by truncating the segment to
// its last valid record, so one disk fault sheds one record, not the
// log.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, l.broken
	}
	if len(payload) == 0 || len(payload) > l.opts.MaxRecordBytes {
		return 0, fmt.Errorf("wal: record size %d out of range (1..%d)", len(payload), l.opts.MaxRecordBytes)
	}
	recSize := int64(recHeaderSize + len(payload))
	if l.opts.MaxBytes > 0 && l.diskBytesLocked()+recSize > l.opts.MaxBytes {
		return 0, ErrFull
	}

	tail := l.segs[len(l.segs)-1]
	if l.nextSeq < l.seqFloor || tail.size+recSize > l.opts.SegmentBytes && tail.count > 0 {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		tail = l.segs[len(l.segs)-1]
	}

	l.scratch = appendRecord(l.scratch[:0], payload)
	if _, err := l.w.Write(l.scratch); err != nil {
		// Roll the segment back to its last valid record. The write may
		// have landed partially; truncate + reopen restores framing.
		if rerr := l.rollbackTailLocked(tail); rerr != nil {
			l.broken = fmt.Errorf("wal: append failed (%v) and rollback failed: %w", err, rerr)
			return 0, l.broken
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}

	// Group commit. A failed fsync rolls the record back too: an append
	// either returns a sequence number the caller may rely on for
	// durability (modulo the SyncEvery window) or it returns an error
	// and the log is exactly as before — never a half-state.
	synced := false
	if l.opts.SyncEvery <= 0 || l.opts.Clock().Sub(l.lastSync) >= l.opts.SyncEvery {
		if err := l.w.Sync(); err != nil {
			if rerr := l.rollbackTailLocked(tail); rerr != nil {
				l.broken = fmt.Errorf("wal: sync failed (%v) and rollback failed: %w", err, rerr)
				return 0, l.broken
			}
			return 0, fmt.Errorf("wal: group-commit sync: %w", err)
		}
		synced = true
	}
	seq := l.nextSeq
	l.nextSeq++
	tail.count++
	tail.size += recSize
	l.dirty = !synced
	if synced {
		l.lastSync = l.opts.Clock()
	}
	return seq, nil
}

// rollbackTailLocked truncates the active segment to its last valid
// record and reopens the append handle.
func (l *Log) rollbackTailLocked(tail *segment) error {
	l.w.Close()
	if err := l.opts.FS.Truncate(l.wPath, tail.size); err != nil {
		return err
	}
	w, err := l.opts.FS.OpenFile(l.wPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.w = w
	return nil
}

// rotateLocked finalizes the active segment (fsync + close) and
// creates the next one, numbered from seqFloor when SeekTo moved the
// numbering past the records on disk. An empty active segment, rotated
// only to renumber, is deleted.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	if err := l.w.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	tail := l.segs[len(l.segs)-1]
	first := max(l.nextSeq, l.seqFloor)
	if err := l.createSegment(tail.index+1, first); err != nil {
		return err
	}
	if tail.count == 0 && l.opts.FS.Remove(l.segPath(tail.index)) == nil {
		// Kept on a failed remove: Release collects it from the front.
		l.segs = append(l.segs[:len(l.segs)-2], l.segs[len(l.segs)-1])
	}
	if l.readSeq == l.nextSeq {
		l.readSeq = first
	}
	l.nextSeq = first
	return nil
}

// Sync forces the group commit: every appended record becomes durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.lastSync = l.opts.Clock()
	return nil
}

// Dirty reports whether unsynced appends exist (drives the background
// group-commit flusher).
func (l *Log) Dirty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirty
}

// Next returns the next unread record in sequence order. ok=false
// means the reader has caught up with the writer (not an error). A
// decode failure skips the rest of the damaged segment — the error
// reports how many records were lost — and the next call continues at
// the following segment.
func (l *Log) Next() (payload []byte, seq uint64, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, false, ErrClosed
	}
	if l.readSeq >= l.nextSeq {
		return nil, 0, false, nil
	}
	skipped, err := l.positionCursorLocked()
	if err != nil {
		return nil, 0, false, err
	}
	if skipped > 0 {
		// The cursor crossed a gap: records recovery already declared
		// lost (mid-segment corruption found at Open). Surface the
		// exact count so the consumer's backlog accounting stays
		// balanced; the cursor is positioned, the next call reads on.
		return nil, 0, false, &LossError{Lost: skipped, Err: ErrCorruptRecord}
	}
	seg := l.segs[l.rSeg]
	p, err := readRecord(l.rBuf, l.opts.MaxRecordBytes)
	if err != nil {
		// Undecodable mid-stream: framing is gone for this segment;
		// skip what remains of it.
		lost := seg.count - l.rInSeg
		l.readSeq += lost
		l.invalidateCursorLocked()
		return nil, 0, false, &LossError{Lost: lost, Err: err}
	}
	seq = l.readSeq
	l.readSeq++
	l.rInSeg++
	return p, seq, true, nil
}

// positionCursorLocked makes the read cursor point at readSeq (or the
// first readable record after it). The skipped return is how many
// sequence numbers the cursor had to jump over — records lost to
// corruption recovery already cut out of a segment's valid range.
func (l *Log) positionCursorLocked() (skipped uint64, err error) {
	if l.rSeg >= 0 && l.rSeg < len(l.segs) {
		seg := l.segs[l.rSeg]
		if l.readSeq == seg.firstSeq+l.rInSeg && l.rInSeg < seg.count {
			return 0, nil // already positioned
		}
	}
	l.invalidateCursorLocked()
	idx := -1
	for i, s := range l.segs {
		if l.readSeq >= s.firstSeq && l.readSeq < s.firstSeq+s.count {
			idx = i
			break
		}
	}
	if idx < 0 {
		// readSeq sits in a gap (records lost to corruption or GC'd
		// segments): advance to the first segment holding it or more.
		for i, s := range l.segs {
			if s.firstSeq+s.count > l.readSeq {
				if s.firstSeq > l.readSeq {
					skipped = s.firstSeq - l.readSeq
					l.readSeq = s.firstSeq
				} else {
					// Inside a segment's range but unindexed cannot
					// happen (the range check above would have hit);
					// defensive.
					l.readSeq = s.firstSeq + s.count
					continue
				}
				if l.readSeq >= l.nextSeq {
					return skipped, fmt.Errorf("wal: no readable record at or after seq %d", l.readSeq)
				}
				idx = i
				break
			}
		}
		if idx < 0 {
			// Everything at or after readSeq is gone (tail corruption
			// of the final segment): report the remainder as skipped.
			skipped = l.nextSeq - l.readSeq
			l.readSeq = l.nextSeq
			return skipped, nil
		}
	}
	seg := l.segs[idx]
	f, err := l.opts.FS.OpenFile(l.segPath(seg.index), os.O_RDONLY, 0)
	if err != nil {
		return skipped, fmt.Errorf("wal: open segment for read: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	if _, err := readSegHeader(br); err != nil {
		f.Close()
		return skipped, err
	}
	// Skip records below the cursor.
	for skip := l.readSeq - seg.firstSeq; skip > 0; skip-- {
		if _, err := readRecord(br, l.opts.MaxRecordBytes); err != nil {
			f.Close()
			return skipped, fmt.Errorf("wal: seeking within segment %d: %w", seg.index, err)
		}
	}
	l.rFile, l.rBuf, l.rSeg, l.rInSeg = f, br, idx, l.readSeq-seg.firstSeq
	return skipped, nil
}

func (l *Log) invalidateCursorLocked() {
	if l.rFile != nil {
		l.rFile.Close()
		l.rFile = nil
	}
	l.rBuf = nil
	l.rSeg = -1
	l.rInSeg = 0
}

// SeekTo positions the reader after seq: the next record returned is
// the oldest on disk with a sequence number greater than seq. No Append
// after it is numbered seq or below: when every record on disk is at or
// below seq — the log was emptied or replaced under a checkpoint that
// survived — the next one is numbered seq+1, or a restart resuming from
// the same cursor would skip it.
func (l *Log) SeekTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seqFloor = max(l.seqFloor, seq+1)
	target := seq + 1
	if len(l.segs) > 0 && target < l.segs[0].firstSeq {
		target = l.segs[0].firstSeq
	}
	if target > l.nextSeq {
		target = l.nextSeq
	}
	l.readSeq = target
	l.invalidateCursorLocked()
}

// Pending returns how many appended records the reader has not
// consumed yet.
func (l *Log) Pending() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextSeq <= l.readSeq {
		return 0
	}
	return l.nextSeq - l.readSeq
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// DiskBytes returns the total valid bytes across segments.
func (l *Log) DiskBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.diskBytesLocked()
}

func (l *Log) diskBytesLocked() int64 {
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// Release deletes the segments whose records are all at or below seq —
// the lowest cursor any retained checkpoint may resume from — and that
// the reader is done with. The active segment goes too once it is
// consumed to its last record — a fresh one takes over first — so a
// backlog that drains to nothing leaves nothing on disk.
func (l *Log) Release(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	floor := min(seq, l.readSeq-1)
	removed := false
	for {
		s := l.segs[0]
		if s.count > 0 && s.lastSeq() > floor {
			break
		}
		if len(l.segs) == 1 {
			if s.count == 0 {
				break
			}
			// Every record in it is consumed, so its unsynced appends
			// need no flush; on failure it simply stays active.
			old := l.w
			if err := l.createSegment(s.index+1, l.nextSeq); err != nil {
				_ = l.opts.FS.Remove(l.segPath(s.index + 1))
				break
			}
			old.Close()
		}
		if l.rSeg == 0 {
			l.invalidateCursorLocked()
		}
		_ = l.opts.FS.Remove(l.segPath(s.index))
		l.segs = l.segs[1:]
		if l.rSeg > 0 {
			l.rSeg--
		}
		removed = true
	}
	if removed {
		_ = l.opts.FS.SyncDir(l.opts.Dir)
	}
}

// Close flushes the group commit and closes every handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closeLocked()
	return err
}

// Abort closes every handle WITHOUT flushing — the SIGKILL shape,
// used by the pipeline's emergency stop so crash tests exercise the
// same recovery path a real kill does.
func (l *Log) Abort() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closeLocked()
}

func (l *Log) closeLocked() {
	l.closed = true
	if l.w != nil {
		l.w.Close()
		l.w = nil
	}
	l.invalidateCursorLocked()
}

// --- record framing -------------------------------------------------

// appendRecord frames one payload onto dst: u32 length, u32
// CRC32(payload), payload.
func appendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// readSegHeader validates the segment magic and returns the first
// sequence number.
func readSegHeader(br *bufio.Reader) (uint64, error) {
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short segment header", ErrTornRecord)
	}
	if [8]byte(hdr[:8]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrCorruptRecord, hdr[:8])
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	if seq == 0 {
		return 0, fmt.Errorf("%w: zero first sequence", ErrCorruptRecord)
	}
	return seq, nil
}

// readRecord decodes one frame. io.EOF means a clean record boundary;
// ErrTornRecord a frame cut short (crash mid-write); ErrCorruptRecord
// a CRC mismatch or an implausible length. It never allocates more
// than maxBytes and never panics, whatever the input — the fuzz
// contract.
func readRecord(br *bufio.Reader, maxBytes int) ([]byte, error) {
	var hdr [recHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary
		}
		return nil, fmt.Errorf("%w: short record header", ErrTornRecord)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || int64(n) > int64(maxBytes) {
		return nil, fmt.Errorf("%w: implausible record length %d", ErrCorruptRecord, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: payload cut short of %d bytes", ErrTornRecord, n)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptRecord)
	}
	return payload, nil
}
