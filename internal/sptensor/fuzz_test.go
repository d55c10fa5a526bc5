package sptensor

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTNS: arbitrary text input must either parse into a valid
// tensor or return an error — never panic, never produce an invalid
// tensor.
func FuzzReadTNS(f *testing.F) {
	f.Add("1 2 3 1.5\n2 3 1 -0.5\n")
	f.Add("# comment\n1 1 0.0\n")
	f.Add("")
	f.Add("1\n")
	f.Add("0 1 1.0\n")
	f.Add("1 1 NaN\n")
	f.Add("9999999999999 1 1.0\n")
	f.Add("1 1 1.0\n1 2.0\n")
	f.Fuzz(func(t *testing.T, input string) {
		ts, err := ReadTNS(strings.NewReader(input), nil)
		if err != nil {
			return
		}
		if vErr := ts.Validate(); vErr != nil {
			t.Fatalf("parsed tensor invalid: %v (input %q)", vErr, input)
		}
		// Round trip: what we parsed must re-serialize and re-parse to
		// the same shape.
		var buf bytes.Buffer
		if wErr := WriteTNS(&buf, ts); wErr != nil {
			t.Fatal(wErr)
		}
		back, rErr := ReadTNS(&buf, ts.Dims)
		if rErr != nil {
			t.Fatalf("round trip failed: %v", rErr)
		}
		if back.NNZ() != ts.NNZ() {
			t.Fatalf("round trip changed nnz: %d vs %d", back.NNZ(), ts.NNZ())
		}
	})
}

// FuzzReadBinary: arbitrary bytes must never panic the binary reader.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid serialization.
	valid := New(3, 4)
	valid.Append([]int32{1, 2}, 1.5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("SPT1"))
	f.Add([]byte("garbage that is long enough to contain stuff"))
	f.Fuzz(func(t *testing.T, input []byte) {
		ts, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if vErr := ts.Validate(); vErr != nil {
			t.Fatalf("binary reader produced invalid tensor: %v", vErr)
		}
	})
}

// FuzzCoalesce: coalescing any structurally valid tensor keeps it valid
// and equals the comparator-sort reference bit for bit — coordinates,
// and sums whose bits depend on the order duplicates are added in.
func FuzzCoalesce(f *testing.F) {
	f.Add(uint16(5), uint16(7), uint16(20))
	f.Fuzz(func(t *testing.T, d0raw, d1raw, nnzRaw uint16) {
		d0 := int(d0raw%16) + 1
		d1 := int(d1raw%16) + 1
		nnz := int(nnzRaw % 128)
		ts := New(d0, d1)
		state := uint64(d0raw)<<32 | uint64(d1raw)<<16 | uint64(nnzRaw) | 1
		next := func(n int) int32 {
			state = state*6364136223846793005 + 1442695040888963407
			return int32((state >> 33) % uint64(n))
		}
		for e := 0; e < nnz; e++ {
			v := (float64(next(1<<20)) - (1 << 19)) / 3
			ts.Append([]int32{next(d0), next(d1)}, v)
		}
		want := ts.Clone()
		referenceCoalesce(want)
		ts.Coalesce()
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
		if d := sameBits(ts, want); d != "" {
			t.Fatalf("coalesce differs from the comparator reference: %s", d)
		}
	})
}
