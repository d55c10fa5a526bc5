package sptensor

import "testing"

func TestStatsForMode(t *testing.T) {
	ts := New(10, 4)
	ts.Append([]int32{0, 0}, 1)
	ts.Append([]int32{0, 1}, 1)
	ts.Append([]int32{3, 2}, 1)
	s := StatsForMode(ts, 0)
	if s.NonzeroRows != 2 || s.MaxPerRow != 2 || s.NNZ != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ZeroRowFrac != 0.8 {
		t.Fatalf("zeroFrac = %v", s.ZeroRowFrac)
	}
	if s1 := StatsForMode(ts, 1); s1.NonzeroRows != 3 {
		t.Fatalf("mode-1 stats = %+v", s1)
	}
}

func TestHistogram(t *testing.T) {
	ts := New(100, 2)
	for i := 0; i < 10; i++ {
		ts.Append([]int32{int32(i), 0}, 1) // clustered at the front
	}
	h := Histogram(ts, 0, 10)
	if h[0] != 10 {
		t.Fatalf("histogram = %v", h)
	}
	for b := 1; b < 10; b++ {
		if h[b] != 0 {
			t.Fatalf("histogram = %v", h)
		}
	}
	sum := 0
	for _, c := range h {
		sum += c
	}
	if sum != ts.NNZ() {
		t.Fatal("histogram does not sum to nnz")
	}
}

func TestHistogramEdges(t *testing.T) {
	ts := New(7, 2)
	ts.Append([]int32{6, 0}, 1) // max index lands in last bucket
	h := Histogram(ts, 0, 3)
	if h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	if got := Histogram(ts, 0, 0); len(got) != 1 {
		t.Fatal("bins<1 should clamp to 1")
	}
}

func TestOccupiedSpan(t *testing.T) {
	ts := New(100, 2)
	for i := 0; i < 5; i++ {
		ts.Append([]int32{int32(i), 0}, 1)
	}
	if span := OccupiedSpan(ts, 0, 20); span != 0.05 {
		t.Fatalf("span = %v", span)
	}
	spread := New(100, 2)
	for i := 0; i < 100; i += 5 {
		spread.Append([]int32{int32(i), 0}, 1)
	}
	if span := OccupiedSpan(spread, 0, 20); span != 1.0 {
		t.Fatalf("spread span = %v", span)
	}
}

func TestMatricize(t *testing.T) {
	ts := New(2, 3, 2)
	ts.Append([]int32{1, 2, 0}, 5)
	m, err := Matricize(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 6 {
		t.Fatalf("matricize shape %d×%d", m.Rows, m.Cols)
	}
	// Column index = i1*I2 + i2 = 2*2+0 = 4.
	if m.At(1, 4) != 5 {
		t.Fatalf("matricize placed value wrong: %v", m)
	}
}

func TestMatricizeTooLarge(t *testing.T) {
	ts := New(10, 1<<15, 1<<15)
	if _, err := Matricize(ts, 0); err == nil {
		t.Fatal("expected size guard error")
	}
	if _, err := Matricize(ts, 9); err == nil {
		t.Fatal("expected mode range error")
	}
}

func TestToDenseVector(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{1, 0}, 3)
	v, err := ToDenseVector(ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 4 || v[2] != 3 {
		t.Fatalf("dense vector = %v", v)
	}
}
