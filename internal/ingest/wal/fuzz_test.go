package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// encodeOffsets is the SPWALO01 sidecar for entries, with count as its
// entry-count field: magic, u32 count, (i64 t, u64 seq) per entry, CRC32
// of everything before it.
func encodeOffsets(count uint32, entries ...offsetEntry) []byte {
	b := binary.LittleEndian.AppendUint32(append([]byte(nil), offMagic[:]...), count)
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.t))
		b = binary.LittleEndian.AppendUint64(b, e.seq)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeOffsets is the format's definition, written apart from the
// loader: the entries of a CRC-valid encoding of at most
// maxOffsetEntries entries, else nothing.
func decodeOffsets(data []byte) []offsetEntry {
	if len(data) < 8+4+4 || !bytes.Equal(data[:8], offMagic[:]) {
		return nil
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil
	}
	n := uint64(binary.LittleEndian.Uint32(data[8:12]))
	if n > maxOffsetEntries || uint64(len(body)) != 12+16*n {
		return nil
	}
	var out []offsetEntry
	for p := body[12:]; len(p) > 0; p = p[16:] {
		out = append(out, offsetEntry{t: int(int64(binary.LittleEndian.Uint64(p))), seq: binary.LittleEndian.Uint64(p[8:])})
	}
	return out
}

// FuzzWALOffsets writes arbitrary bytes as the consumer-offset sidecar
// and opens the log over it. Open must never panic and must load either
// nothing or exactly the entries of a CRC-valid SPWALO01 encoding, which
// OffsetFor then answers from. A CommitOffset after the load must write
// a sidecar that reopens to the same table and re-encodes to the same
// bytes.
func FuzzWALOffsets(f *testing.F) {
	valid := encodeOffsets(3, offsetEntry{t: 2, seq: 10}, offsetEntry{t: 5, seq: 20}, offsetEntry{t: 9, seq: 31})
	f.Add(valid, int64(7), uint64(25), uint8(2))
	f.Add(valid[:len(valid)-6], int64(7), uint64(25), uint8(2)) // truncated
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC, int64(1), uint64(3), uint8(0))
	over := encodeOffsets(maxOffsetEntries+1, offsetEntry{t: 1, seq: 1}, offsetEntry{t: 2, seq: 2}) // count past the cap
	f.Add(over, int64(3), uint64(4), uint8(15))
	f.Add([]byte{}, int64(-1), uint64(math.MaxUint64), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, ct int64, seq uint64, older uint8) {
		dir := t.TempDir()
		path := filepath.Join(dir, offsetName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l, _, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open over a sidecar: %v", err)
		}
		defer l.Close()
		want := decodeOffsets(data)
		if !slices.Equal(l.offsets, want) {
			t.Fatalf("loaded %v, the encoding holds %v", l.offsets, want)
		}
		for _, e := range append(want, offsetEntry{t: math.MinInt}, offsetEntry{t: math.MaxInt}) {
			for _, probe := range []int{e.t, e.t - 1, e.t + 1} {
				var wantSeq uint64
				found := false
				for _, w := range want {
					if w.t <= probe {
						wantSeq, found = w.seq, true
					}
				}
				if got, ok := l.OffsetFor(probe); got != wantSeq || ok != found {
					t.Fatalf("OffsetFor(%d) = %d,%v; the loaded table says %d,%v", probe, got, ok, wantSeq, found)
				}
			}
		}

		if err := l.CommitOffset(int(ct), seq, int(older)); err != nil {
			t.Fatalf("CommitOffset: %v", err)
		}
		committed := slices.Clone(l.offsets)
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, _, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after commit: %v", err)
		}
		defer l2.Close()
		if !slices.Equal(l2.offsets, committed) {
			t.Fatalf("reopened %v, committed %v", l2.offsets, committed)
		}
		if re := encodeOffsets(uint32(len(l2.offsets)), l2.offsets...); !bytes.Equal(re, written) {
			t.Fatalf("reloaded table encodes to %x, the sidecar holds %x", re, written)
		}
	})
}
