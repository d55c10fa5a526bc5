package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzRestoreState: arbitrary bytes fed to RestoreState must either
// restore (only possible for a byte-exact valid checkpoint) or return
// an error — never panic, and never allocate proportionally to claimed
// (rather than actual) input sizes. Every length field is validated
// against the receiving decomposer before it drives an allocation, so
// a forged header cannot OOM the process.
func FuzzRestoreState(f *testing.F) {
	dims := []int{6, 7}
	opt := Options{Rank: 3, Seed: 1, Workers: 1}

	// Seed with a genuine checkpoint and targeted mutations of it.
	s := testStream(f, 401, dims, 60, 3)
	d, err := NewDecomposer(dims, opt)
	if err != nil {
		f.Fatal(err)
	}
	for _, x := range s.Slices {
		if _, err := d.ProcessSlice(x); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // missing footer
	f.Add(valid[:8])            // magic only
	f.Add([]byte{})
	f.Add([]byte("SPSTRM01"))
	f.Add([]byte("SPSTRM02"))
	f.Add([]byte("SPSTRM99 and then some garbage"))
	// The same state under the v3 magic, resealed: no cursor, rejected.
	v3 := append([]byte(nil), valid...)
	copy(v3, "SPSTRM03")
	resealCRC(v3)
	f.Add(v3)
	// One flipped bit in the WAL cursor, the last word before the footer:
	// only the checksum can catch it.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-4-8] ^= 0x01
	probe, err := NewDecomposer(dims, opt)
	if err != nil {
		f.Fatal(err)
	}
	if err := probe.RestoreState(bytes.NewReader(flipped)); err == nil {
		f.Fatal("a checkpoint with a flipped cursor bit restored")
	}
	f.Add(flipped)
	// The state under the v4 magic, resealed: no z-side log, rejected.
	v4 := append([]byte(nil), valid...)
	copy(v4, "SPSTRM04")
	resealCRC(v4)
	f.Add(v4)
	// The state under the v5 magic, resealed: v5 carries a temporal
	// history after sₜ, so it is refused by name.
	v5 := append([]byte(nil), valid...)
	copy(v5, "SPSTRM05")
	resealCRC(v5)
	if err := probe.RestoreState(bytes.NewReader(v5)); err == nil || !strings.Contains(err.Error(), "SPSTRM05") {
		f.Fatalf("SPSTRM05 checkpoint: got %v, want a rejection naming the version", err)
	}
	f.Add(v5)
	// The state under the v6 magic, resealed: v6 carries C_z and the nz
	// sets, so it is refused by name.
	v6 := append([]byte(nil), valid...)
	copy(v6, "SPSTRM06")
	resealCRC(v6)
	if err := probe.RestoreState(bytes.NewReader(v6)); err == nil || !strings.Contains(err.Error(), "SPSTRM06") {
		f.Fatalf("SPSTRM06 checkpoint: got %v, want a rejection naming the version", err)
	}
	f.Add(v6)

	// A spCP checkpoint, its z side three slices past the last flush,
	// and forgeries of it, resealed so only validation can refuse them —
	// each before it drives an allocation or reaches a slice: a t past
	// the largest int, a row dated after t, a log longer than zLogLen, a
	// log cut short, and a v6-style nz list spliced in before the cursor
	// (this format stores none, so the words after sₜ must be the cursor
	// and the footer).
	sp, err := NewDecomposer(dims, Options{Rank: 3, Seed: 1, Workers: 1, Algorithm: SpCPStream})
	if err != nil {
		f.Fatal(err)
	}
	for _, x := range s.Slices {
		if _, err := sp.ProcessSlice(x); err != nil {
			f.Fatal(err)
		}
	}
	buf.Reset()
	if err := sp.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	lazy := buf.Bytes()
	// magic, N, I₁, I₂, K, t; then lag; then mode 0's factor and ages.
	const tAt = 8 + 8*(1+2+1)
	const lagAt = tAt + 8
	ageAt := lagAt + 8 + 8*dims[0]*opt.Rank
	if lag := binary.LittleEndian.Uint64(lazy[lagAt:]); lag != uint64(len(s.Slices)) {
		f.Fatalf("spCP checkpoint lag %d, want %d", lag, len(s.Slices))
	}
	f.Add(lazy)
	huge := append([]byte(nil), lazy...)
	binary.LittleEndian.PutUint64(huge[tAt:], uint64(math.MaxInt)+1)
	resealCRC(huge)
	future := append([]byte(nil), lazy...)
	future[ageAt] = byte(len(s.Slices) + 1)
	resealCRC(future)
	long := append([]byte(nil), lazy...)
	binary.LittleEndian.PutUint64(long[lagAt:], zLogLen+1)
	resealCRC(long)
	cut := append([]byte(nil), lazy[:ageAt+dims[0]+8*opt.Rank]...)
	cursorAt := len(lazy) - 4 - 8
	nzList := binary.LittleEndian.AppendUint64(nil, 2)
	nzList = binary.LittleEndian.AppendUint32(nzList, 1)
	nzList = binary.LittleEndian.AppendUint32(nzList, 4)
	stale := append(append(append([]byte(nil), lazy[:cursorAt]...), nzList...), lazy[cursorAt:]...)
	resealCRC(stale)
	for name, forged := range map[string][]byte{
		"t past the largest int": huge, "future row": future, "long log": long, "truncated log": cut,
		"stale nz list": stale,
	} {
		probe, err := NewDecomposer(dims, opt)
		if err != nil {
			f.Fatal(err)
		}
		if err := probe.RestoreState(bytes.NewReader(forged)); err == nil {
			f.Fatalf("a checkpoint with a %s restored", name)
		}
		f.Add(forged)
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		// A successful restore must leave a usable decomposer under either
		// algorithm: a non-negative slice counter, and processing that
		// continues — Optimized reads the factors and Grams, SpCPStream
		// the z side too.
		for _, alg := range []Algorithm{Optimized, SpCPStream} {
			o := opt
			o.Algorithm = alg
			fresh, err := NewDecomposer(dims, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreState(bytes.NewReader(input)); err != nil {
				continue
			}
			if fresh.T() < 0 {
				t.Fatalf("%v: restored T=%d", alg, fresh.T())
			}
			if _, err := fresh.ProcessSlice(s.Slices[0]); err != nil {
				t.Fatalf("%v: decomposer broken after accepted restore: %v", alg, err)
			}
		}
	})
}
