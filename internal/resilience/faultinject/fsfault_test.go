package faultinject

import (
	"errors"
	"strings"
	"syscall"
	"testing"

	"spstream/internal/ingest/wal"
)

func openWAL(t *testing.T, dir string, fsys wal.FS) (*wal.Log, wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(wal.Options{Dir: dir, FS: fsys})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, rec
}

// nextOrd returns the ordinal the next write or sync operation will get.
func nextOrd(f *FaultFS) uint64 {
	w, s := f.Ops()
	return uint64(w+s) + 1
}

func readAll(t *testing.T, l *wal.Log) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	for {
		p, seq, ok, err := l.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out[seq] = string(p)
	}
}

// TestShortWriteShedsOneRecord injects a partial write mid-append: the
// append fails, the rollback restores framing, and both the live log
// and a clean reopen see every other record intact.
func TestShortWriteShedsOneRecord(t *testing.T) {
	dir := t.TempDir()
	plan := FSFaultPlan{ShortWriteAt: map[uint64]int{}}
	ffs := NewFaultFS(nil, plan)
	l, _ := openWAL(t, dir, ffs)

	for _, p := range []string{"alpha", "beta"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}

	// Tear the next append's write after 5 bytes (a partial frame).
	plan.ShortWriteAt[nextOrd(ffs)] = 5
	if _, err := l.Append([]byte("gamma-never-lands")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted append: got %v, want EIO", err)
	}

	seq, err := l.Append([]byte("delta"))
	if err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if seq != 3 {
		t.Fatalf("seq after shed append = %d, want 3 (faulted append must not consume a seq)", seq)
	}

	got := readAll(t, l)
	want := map[uint64]string{1: "alpha", 2: "beta", 3: "delta"}
	for s, p := range want {
		if got[s] != p {
			t.Fatalf("live read: seq %d = %q, want %q (all: %v)", s, got[s], p, got)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A clean reopen must agree: the torn prefix never reached disk
	// past the rollback.
	l2, rec := openWAL(t, dir, nil)
	defer l2.Close()
	if rec.Records != 3 || rec.TruncatedBytes != 0 || rec.LostRecords != 0 {
		t.Fatalf("reopen recovery = %+v, want 3 clean records", rec)
	}
}

// TestFailedSyncRollsBack injects an fsync failure at group commit:
// the append reports the error, the record is rolled back, and the log
// keeps working.
func TestFailedSyncRollsBack(t *testing.T) {
	dir := t.TempDir()
	plan := FSFaultPlan{FailSyncAt: map[uint64]bool{}}
	ffs := NewFaultFS(nil, plan)
	l, _ := openWAL(t, dir, ffs)
	defer l.Close()

	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// Next append: write gets ord N, its group-commit sync gets N+1.
	plan.FailSyncAt[nextOrd(ffs)+1] = true
	_, err := l.Append([]byte("two-unsynced"))
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "sync") {
		t.Fatalf("faulted sync append: got %v, want EIO from group-commit sync", err)
	}

	seq, err := l.Append([]byte("three"))
	if err != nil {
		t.Fatalf("append after sync rollback: %v", err)
	}
	if seq != 2 {
		t.Fatalf("seq = %d, want 2: the unsynced record must be rolled back", seq)
	}
	got := readAll(t, l)
	if got[1] != "one" || got[2] != "three" || len(got) != 2 {
		t.Fatalf("read after sync fault: %v", got)
	}
}

// TestTornRecordSurvivesCrashAndRecovers defeats the rollback too
// (Truncate fails), so a genuinely torn record stays on disk — the
// crash shape. The log latches broken; recovery on reopen truncates
// the torn tail and the log resumes with nothing else lost.
func TestTornRecordSurvivesCrashAndRecovers(t *testing.T) {
	dir := t.TempDir()
	plan := FSFaultPlan{ShortWriteAt: map[uint64]int{}, FailTruncate: true}
	ffs := NewFaultFS(nil, plan)
	l, _ := openWAL(t, dir, ffs)

	for _, p := range []string{"one", "two"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}

	plan.ShortWriteAt[nextOrd(ffs)] = 5
	if _, err := l.Append([]byte("torn-on-disk")); err == nil {
		t.Fatal("faulted append succeeded")
	}
	// Rollback could not run: the log must refuse further appends
	// rather than write behind a torn record.
	if _, err := l.Append([]byte("after-broken")); err == nil || !strings.Contains(err.Error(), "rollback failed") {
		t.Fatalf("append on broken log: got %v, want latched rollback failure", err)
	}
	l.Abort() // crash: no flush

	l2, rec := openWAL(t, dir, nil)
	defer l2.Close()
	if rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v: expected a torn tail to truncate", rec)
	}
	if rec.Records != 2 || rec.LostRecords != 0 {
		t.Fatalf("recovery = %+v, want the 2 committed records and no losses", rec)
	}
	seq, err := l2.Append([]byte("three"))
	if err != nil {
		t.Fatalf("append after crash recovery: %v", err)
	}
	got := readAll(t, l2)
	want := map[uint64]string{1: "one", 2: "two", seq: "three"}
	for s, p := range want {
		if got[s] != p {
			t.Fatalf("post-recovery read: seq %d = %q, want %q", s, got[s], p)
		}
	}
}

// TestENOSPCCliff fills the "disk": every write past the cliff fails
// with ENOSPC. Each faulted append sheds exactly its own record and
// the records before the cliff stay readable.
func TestENOSPCCliff(t *testing.T) {
	dir := t.TempDir()
	// Open costs 2 ops (header write + sync); each append costs 2.
	// Cliff after 3 appends: 2 + 3*2 + 1.
	ffs := NewFaultFS(nil, FSFaultPlan{ENOSPCFromWrite: 9})
	l, _ := openWAL(t, dir, ffs)
	defer l.Close()

	var okAppends int
	for i := 0; i < 6; i++ {
		_, err := l.Append([]byte{byte('a' + i)})
		if err == nil {
			okAppends++
			continue
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append %d: got %v, want ENOSPC", i, err)
		}
	}
	if okAppends != 3 {
		t.Fatalf("appends before cliff = %d, want 3", okAppends)
	}
	got := readAll(t, l)
	if len(got) != 3 || got[1] != "a" || got[2] != "b" || got[3] != "c" {
		t.Fatalf("post-cliff read: %v", got)
	}
}
