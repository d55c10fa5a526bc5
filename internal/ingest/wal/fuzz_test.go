package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fuzzMaxRecord keeps fuzz-side allocations bounded; the decoder must
// reject anything claiming more without allocating it.
const fuzzMaxRecord = 1 << 16

// FuzzWALRecord throws arbitrary bytes at the record decoder: it must
// never panic, never allocate beyond the claimed bound, and classify
// every outcome as a clean boundary (EOF), a torn record, corruption,
// or a valid frame whose payload round-trips.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(appendRecord(nil, []byte("hello")))
	f.Add(appendRecord(nil, []byte("hello"))[:5]) // torn header
	f.Add(appendRecord(nil, []byte("hello"))[:9]) // torn payload
	huge := make([]byte, recHeaderSize)
	binary.LittleEndian.PutUint32(huge, 0xFFFFFFFF)
	f.Add(huge) // oversized claim
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		payload, err := readRecord(br, fuzzMaxRecord)
		switch {
		case err == nil:
			// A valid frame: the framing must reproduce it exactly.
			if len(payload) == 0 || len(payload) > fuzzMaxRecord {
				t.Fatalf("accepted payload of size %d", len(payload))
			}
			re := appendRecord(nil, payload)
			if !bytes.Equal(re, data[:len(re)]) {
				t.Fatal("re-encoded frame differs from input prefix")
			}
		case err == io.EOF:
			if len(data) != 0 {
				t.Fatalf("EOF with %d unread bytes", len(data))
			}
		case errors.Is(err, ErrTornRecord), errors.Is(err, ErrCorruptRecord):
			// The expected rejection classes.
		default:
			t.Fatalf("unclassified decode error: %v", err)
		}
	})
}

// FuzzWALSegment writes arbitrary bytes as a segment file and opens the
// log over it: Open must never panic, never loop, and always leave a
// usable log behind — whatever recovery had to cut.
func FuzzWALSegment(f *testing.F) {
	valid := func(records ...[]byte) []byte {
		var b []byte
		b = append(b, segMagic[:]...)
		b = binary.LittleEndian.AppendUint64(b, 1)
		for _, r := range records {
			b = appendRecord(b, r)
		}
		return b
	}
	f.Add(valid([]byte("a"), []byte("bb")))
	f.Add(valid([]byte("a"))[:10])        // torn header
	f.Add(valid([]byte("abcdef"))[:20])   // torn record
	f.Add([]byte("not a segment at all")) // bad magic
	corrupt := valid([]byte("aaaa"), []byte("bbbb"))
	corrupt[segHeaderSize+recHeaderSize+1] ^= 0x40 // flip inside record 1
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-000000001.seg"), data, 0o644); err != nil {
			t.Skip()
		}
		l, rec, err := Open(Options{Dir: dir, MaxRecordBytes: fuzzMaxRecord})
		if err != nil {
			// A rejected segment is an acceptable outcome for torn
			// headers mid-chain; the log must not exist half-open.
			if l != nil {
				t.Fatal("Open returned both a log and an error")
			}
			return
		}
		defer l.Close()
		// Whatever recovered, the log must append and read coherently.
		seq, err := l.Append([]byte("post-recovery"))
		if err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		var got uint64
		for i := uint64(0); i < rec.Records+8; i++ {
			p, s, ok, err := l.Next()
			if err != nil {
				var loss *LossError
				if !errors.As(err, &loss) {
					t.Fatalf("Next: %v", err)
				}
				continue
			}
			if !ok {
				break
			}
			if s > seq {
				t.Fatalf("read seq %d beyond appended %d", s, seq)
			}
			if len(p) == 0 {
				t.Fatal("empty payload surfaced")
			}
			got = s
		}
		if got != seq {
			t.Fatalf("never read back the post-recovery append (last seq %d, want %d)", got, seq)
		}
	})
}
