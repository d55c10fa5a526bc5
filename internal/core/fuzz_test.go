package core

import (
	"bytes"
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
	// A forged header claiming an astronomical temporal history.
	forged := append([]byte(nil), valid[:32]...)
	for i := 24; i < 32; i++ {
		forged[i] = 0xff
	}
	f.Add(forged)
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

	f.Fuzz(func(t *testing.T, input []byte) {
		fresh, err := NewDecomposer(dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(bytes.NewReader(input)); err != nil {
			return
		}
		// A successful restore must leave a usable decomposer: the slice
		// counter matches the temporal history and processing continues.
		if fresh.T() != len(fresh.sHist) {
			t.Fatalf("restored T=%d with %d temporal rows", fresh.T(), len(fresh.sHist))
		}
		if _, err := fresh.ProcessSlice(s.Slices[0]); err != nil {
			t.Fatalf("decomposer broken after accepted restore: %v", err)
		}
	})
}
