package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, opts Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func payload(i int) []byte { return []byte(fmt.Sprintf("record-%06d-payload", i)) }

// drainAll reads every pending record, asserting contiguous sequence
// numbers from first.
func drainAll(t *testing.T, l *Log, first uint64) int {
	t.Helper()
	n := 0
	want := first
	for {
		p, seq, ok, err := l.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return n
		}
		if seq != want {
			t.Fatalf("seq = %d, want %d", seq, want)
		}
		if !bytes.Equal(p, payload(int(seq))) {
			t.Fatalf("payload mismatch at seq %d", seq)
		}
		want++
		n++
	}
}

// TestAppendReadRoundTrip: records come back in order, byte-identical,
// across segment rotations.
func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	const n = 100
	for i := 1; i <= n; i++ {
		seq, err := l.Append(payload(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append seq = %d, want %d", seq, i)
		}
	}
	if l.Segments() < 5 {
		t.Fatalf("Segments() = %d with 256-byte segments, want many", l.Segments())
	}
	if got := drainAll(t, l, 1); got != n {
		t.Fatalf("drained %d records, want %d", got, n)
	}
	if p := l.Pending(); p != 0 {
		t.Fatalf("Pending = %d after drain, want 0", p)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReopenResumes: close, reopen, and both the unread backlog and the
// append sequence continue where they left off.
func TestReopenResumes(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Consume 4, leave 6 pending.
	for i := 0; i < 4; i++ {
		if _, _, ok, err := l.Next(); !ok || err != nil {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	}
	l.Close()

	l2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	if rec.Records != 10 {
		t.Fatalf("recovered %d records, want 10", rec.Records)
	}
	// Reader restarts at the oldest on-disk record (resuming from a
	// checkpoint's cursor is the caller's job via SeekTo); appends
	// continue at 11.
	if seq, err := l2.Append(payload(11)); err != nil || seq != 11 {
		t.Fatalf("Append after reopen: seq=%d err=%v", seq, err)
	}
	if got := drainAll(t, l2, 1); got != 11 {
		t.Fatalf("drained %d after reopen, want 11", got)
	}
	l2.Close()
}

// TestTornTailTruncated: a crash mid-append leaves a torn final record;
// recovery truncates it and the log keeps working.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Abort() // no flush — but the writes are in the page cache

	// Tear the last record: chop 7 bytes off the single segment.
	seg := filepath.Join(dir, "wal-000000001.seg")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, Options{Dir: dir})
	if rec.Records != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", rec.Records)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes = 0, want >0")
	}
	// The torn record's sequence number is reused by the next append —
	// it never existed durably.
	if seq, err := l2.Append(payload(5)); err != nil || seq != 5 {
		t.Fatalf("post-recovery Append: seq=%d err=%v", seq, err)
	}
	if got := drainAll(t, l2, 1); got != 5 {
		t.Fatalf("drained %d, want 5", got)
	}
	l2.Close()
}

// TestMidSegmentCorruption: a bit flip in an old record is detected by
// CRC; the reader skips the damaged segment's remainder and reports the
// loss rather than returning bad bytes.
func TestMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 200})
	for i := 1; i <= 12; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a byte inside the FIRST segment's second record (past header
	// + one full record).
	seg := filepath.Join(dir, "wal-000000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize + recHeaderSize + len(payload(1)) + recHeaderSize + 3
	if off >= len(data) {
		t.Fatalf("test geometry: offset %d beyond segment size %d", off, len(data))
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 200})
	if rec.LostRecords == 0 {
		t.Fatal("LostRecords = 0 after mid-segment corruption, want >0")
	}
	// Reading: first record fine, then a LossError, then the next
	// segment continues.
	if _, seq, ok, err := l2.Next(); !ok || err != nil || seq != 1 {
		t.Fatalf("first read: seq=%d ok=%v err=%v", seq, ok, err)
	}
	var loss *LossError
	good := 1
	for {
		_, _, ok, err := l2.Next()
		if err != nil {
			if !errors.As(err, &loss) {
				t.Fatalf("want LossError, got %v", err)
			}
			continue
		}
		if !ok {
			break
		}
		good++
	}
	if loss == nil {
		t.Fatal("reader never surfaced a LossError")
	}
	if good+int(loss.Lost) > 12 || good < 6 {
		t.Fatalf("good=%d lost=%d of 12", good, loss.Lost)
	}
	l2.Close()
}

// TestMaxBytes: the byte budget sheds instead of growing.
func TestMaxBytes(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 128, MaxBytes: 400})
	var full bool
	for i := 1; i <= 100; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("Append: %v, want ErrFull", err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Fatal("100 appends never hit a 400-byte MaxBytes")
	}
	if l.DiskBytes() > 400 {
		t.Fatalf("DiskBytes = %d beyond MaxBytes 400", l.DiskBytes())
	}
	l.Close()
}

// TestGroupCommit: with a long SyncEvery only the first append in the
// window fsyncs; Sync() forces the rest out.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	l, _ := mustOpen(t, Options{Dir: dir, SyncEvery: time.Hour, Clock: clock})
	for i := 1; i <= 8; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !l.Dirty() {
		t.Fatal("log clean after appends inside the group-commit window")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Dirty() {
		t.Fatal("log dirty after explicit Sync")
	}
	// Advancing the clock past the window makes the next append flush.
	now = now.Add(2 * time.Hour)
	if _, err := l.Append(payload(9)); err != nil {
		t.Fatal(err)
	}
	if l.Dirty() {
		t.Fatal("append past the window did not group-commit")
	}
	l.Close()
}

// TestSeekToClamps: seeking beyond either end clamps instead of
// derailing the cursor.
func TestSeekToClamps(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= 3; i++ {
		l.Append(payload(i))
	}
	l.SeekTo(999)
	if p := l.Pending(); p != 0 {
		t.Fatalf("Pending = %d after over-seek, want 0", p)
	}
	l.SeekTo(0)
	if got := drainAll(t, l, 1); got != 3 {
		t.Fatalf("drained %d after rewind, want 3", got)
	}
	l.Close()
}

// TestEmptyDirOpen: a fresh directory yields an empty, working log.
func TestEmptyDirOpen(t *testing.T) {
	l, rec := mustOpen(t, Options{Dir: t.TempDir()})
	if rec.Records != 0 || rec.Segments != 0 {
		t.Fatalf("fresh recovery = %+v, want zero", rec)
	}
	if _, _, ok, err := l.Next(); ok || err != nil {
		t.Fatalf("Next on empty log: ok=%v err=%v", ok, err)
	}
	l.Close()
}

// TestOversizedRecordRejected at both ends: append refuses it, and a
// forged oversized length on disk reads as corruption without
// allocating the claimed size.
func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, MaxRecordBytes: 64})
	if _, err := l.Append(make([]byte, 65)); err == nil {
		t.Fatal("oversized append accepted")
	}
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
	l.Close()

	// Forge a record claiming 4 GiB.
	forged := make([]byte, 0, 64)
	forged = append(forged, segMagic[:]...)
	forged = append(forged, 1, 0, 0, 0, 0, 0, 0, 0) // firstSeq=1
	forged = append(forged, 0xFF, 0xFF, 0xFF, 0xFF) // len
	forged = append(forged, 0, 0, 0, 0)             // crc
	br := bufio.NewReader(bytes.NewReader(forged[segHeaderSize:]))
	if _, err := readRecord(br, 64); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("forged length read as %v, want ErrCorruptRecord", err)
	}
}

// TestCommitRetentionAndActiveSegmentGC: after a checkpoint commit the
// consumer releases up to the lowest cursor a retained checkpoint may
// resume from. A segment goes only when all its records are at or below
// that floor and behind the reader; once every record is, the active
// segment goes too, leaving a fresh empty one whose numbering continues.
func TestCommitRetentionAndActiveSegmentGC(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	for i := 1; i <= 20; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	l.Release(20)
	if l.Segments() != segs {
		t.Fatal("released segments the reader has not passed")
	}
	for i := 0; i < 12; i++ {
		l.Next()
	}
	l.Release(6)
	if got := l.Segments(); got >= segs || got == 1 {
		t.Fatalf("segments %d → %d after releasing up to 6 of 20", segs, got)
	}
	l.Close()
	l2, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	// Every record above the floor is still on disk.
	l2.SeekTo(6)
	if got := drainAll(t, l2, 7); got != 14 {
		t.Fatalf("replayed %d records after the floor, want 14", got)
	}
	l2.Release(20)
	if l2.Segments() != 1 || l2.DiskBytes() != segHeaderSize {
		t.Fatalf("segments=%d disk=%d after a full release, want one empty segment", l2.Segments(), l2.DiskBytes())
	}
	if seq, err := l2.Append(payload(21)); err != nil || seq != 21 {
		t.Fatalf("append after collection: seq=%d err=%v, want 21", seq, err)
	}
	l2.Close()
	l3, rec := mustOpen(t, Options{Dir: dir})
	defer l3.Close()
	if rec.Records != 1 || drainAll(t, l3, 21) != 1 {
		t.Fatalf("reopen found %d records, want the one appended after collection", rec.Records)
	}
}

// TestSeekToPastRecordsRenumbers: a consumer resuming from a cursor above
// every record on disk — the log was emptied or replaced under a
// checkpoint that survived — must see the next append numbered past the
// cursor, or a restart from the same cursor would skip it. Records below
// the cursor stay readable.
func TestSeekToPastRecordsRenumbers(t *testing.T) {
	for _, before := range []int{0, 3} {
		dir := t.TempDir()
		l, _ := mustOpen(t, Options{Dir: dir})
		for i := 1; i <= before; i++ {
			if _, err := l.Append(payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		l.SeekTo(40)
		if p := l.Pending(); p != 0 {
			t.Fatalf("%d records: Pending = %d after seeking past them, want 0", before, p)
		}
		for i := 41; i <= 42; i++ {
			if seq, err := l.Append(payload(i)); err != nil || seq != uint64(i) {
				t.Fatalf("%d records: append after SeekTo(40) got seq %d (err %v), want %d", before, seq, err, i)
			}
		}
		if got := drainAll(t, l, 41); got != 2 {
			t.Fatalf("%d records: read %d appends after the cursor, want 2", before, got)
		}
		l.Close()

		l2, rec := mustOpen(t, Options{Dir: dir})
		if rec.Records != uint64(before+2) || rec.LostRecords != 0 {
			t.Fatalf("%d records: reopen recovered %+v", before, rec)
		}
		l2.SeekTo(40)
		if got := drainAll(t, l2, 41); got != 2 {
			t.Fatalf("%d records: replayed %d records after the cursor, want 2", before, got)
		}
		l2.Close()
	}
}

// TestSegmentDefaultFollowsCap: disk is reclaimed a segment at a time,
// so the default segment size shrinks to a quarter of a small MaxBytes.
func TestSegmentDefaultFollowsCap(t *testing.T) {
	if got := (Options{MaxBytes: 1 << 20}).withDefaults().SegmentBytes; got != 256<<10 {
		t.Fatalf("SegmentBytes = %d under a 1 MiB cap, want 256 KiB", got)
	}
	if got := (Options{MaxBytes: 1 << 20, SegmentBytes: 1 << 20}).withDefaults().SegmentBytes; got != 1<<20 {
		t.Fatalf("explicit SegmentBytes overridden to %d", got)
	}
	if got := (Options{}).withDefaults().SegmentBytes; got != 4<<20 {
		t.Fatalf("SegmentBytes = %d without a cap, want 4 MiB", got)
	}
}
