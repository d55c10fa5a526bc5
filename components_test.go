package spstream_test

import (
	"math"
	"testing"

	"spstream"
)

func smallDecomposer(t *testing.T) (*spstream.Decomposer, *spstream.Stream) {
	t.Helper()
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := spstream.New(stream.Dims, spstream.Options{Rank: 4, Seed: 3, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 2; ti++ {
		if _, err := dec.ProcessSlice(stream.Slices[ti]); err != nil {
			t.Fatal(err)
		}
	}
	return dec, stream
}

func TestTopRows(t *testing.T) {
	dec, stream := smallDecomposer(t)
	top := spstream.TopRows(dec, 1, 0, 5)
	if len(top) != 5 {
		t.Fatalf("got %d rows", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Fatal("not sorted descending")
		}
	}
	// Weights come from the factor matrix itself.
	f := dec.Factor(1)
	if top[0].Weight != math.Abs(f.At(top[0].Row, 0)) {
		t.Fatal("weight mismatch")
	}
	// Clamping and bad component handling.
	if got := spstream.TopRows(dec, 0, 0, 10000); len(got) != stream.Dims[0] {
		t.Fatalf("clamp failed: %d", len(got))
	}
	if spstream.TopRows(dec, 0, 99, 3) != nil {
		t.Fatal("bad component should return nil")
	}
	if got := spstream.TopRows(dec, 0, 0, -1); len(got) != 0 {
		t.Fatal("negative n should return empty")
	}
}

func TestComponentStrengthsAndRanking(t *testing.T) {
	dec, _ := smallDecomposer(t)
	strengths := spstream.ComponentStrengths(dec)
	if len(strengths) != 4 {
		t.Fatalf("got %d strengths", len(strengths))
	}
	for _, s := range strengths {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("bad strength %v", s)
		}
	}
	order := spstream.RankComponents(dec)
	if len(order) != 4 {
		t.Fatal("ranking length wrong")
	}
	for i := 1; i < len(order); i++ {
		if strengths[order[i]] > strengths[order[i-1]] {
			t.Fatal("ranking not descending")
		}
	}
}

func TestReconstructAt(t *testing.T) {
	dec, _ := smallDecomposer(t)
	// Manual evaluation of the model at one coordinate.
	coord := []int32{1, 2, 3}
	s := dec.LastS()
	want := 0.0
	for k := 0; k < dec.Rank(); k++ {
		p := s[k]
		for m := range dec.Dims() {
			p *= dec.Factor(m).At(int(coord[m]), k)
		}
		want += p
	}
	if got, err := spstream.ReconstructAt(dec, coord); err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("ReconstructAt = %v, %v want %v", got, err, want)
	}
	// A short or out-of-range coordinate is an error, not a panic.
	if _, err := spstream.ReconstructAt(dec, coord[:2]); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := spstream.ReconstructAt(dec, []int32{1, 2, int32(dec.Dims()[2])}); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	}
	if _, err := spstream.ReconstructAt(dec, []int32{-1, 2, 3}); err == nil {
		t.Fatal("negative coordinate accepted")
	}
}

func TestWindowedIngestionThroughFacade(t *testing.T) {
	dims := []int{6, 6}
	ch := make(chan *spstream.Tensor, 4)
	go func() {
		w := spstream.NewWindowAccumulator(dims, 50)
		for i := 0; i < 200; i++ {
			if out := w.Add(spstream.Event{Coord: []int32{int32(i % 6), int32((i / 2) % 6)}, Value: 1}); out != nil {
				ch <- out
			}
		}
		if out := w.Flush(); out != nil {
			ch <- out
		}
		close(ch)
	}()
	dec, err := spstream.New(dims, spstream.Options{Rank: 2, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	results, err := dec.ProcessStream(spstream.NewChannelSource(dims, ch), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("processed %d windows", len(results))
	}
}
