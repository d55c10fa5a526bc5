package sptensor

import (
	"testing"
	"testing/quick"
)

// buildTestTensor returns a small 3-way tensor with known contents.
func buildTestTensor() *Tensor {
	t := New(3, 4, 2)
	t.Append([]int32{0, 1, 0}, 1.5)
	t.Append([]int32{2, 3, 1}, -2.0)
	t.Append([]int32{1, 0, 0}, 3.0)
	t.Append([]int32{2, 1, 1}, 0.5)
	return t
}

func TestAppendAndBasics(t *testing.T) {
	ts := buildTestTensor()
	if ts.NModes() != 3 || ts.NNZ() != 4 {
		t.Fatalf("modes=%d nnz=%d", ts.NModes(), ts.NNZ())
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if ts.Norm2() != 1.5*1.5+4+9+0.25 {
		t.Fatalf("Norm2 = %v", ts.Norm2())
	}
}

func TestAppendWrongArity(t *testing.T) {
	ts := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ts.Append([]int32{0}, 1)
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{1, 1}, 1)
	ts.Inds[0][0] = 5
	if err := ts.Validate(); err == nil {
		t.Fatal("expected range error")
	}
}

func TestValidateCatchesRaggedColumns(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{0, 0}, 1)
	ts.Inds[1] = ts.Inds[1][:0]
	if err := ts.Validate(); err == nil {
		t.Fatal("expected column-length error")
	}
}

func TestCloneIndependent(t *testing.T) {
	ts := buildTestTensor()
	c := ts.Clone()
	c.Vals[0] = 99
	c.Inds[0][0] = 1
	if ts.Vals[0] == 99 || ts.Inds[0][0] == 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSortByMode(t *testing.T) {
	ts := buildTestTensor()
	ts.SortByMode(1)
	prev := int32(-1)
	for _, i := range ts.Inds[1] {
		if i < prev {
			t.Fatal("not sorted by mode 1")
		}
		prev = i
	}
	if ts.NNZ() != 4 {
		t.Fatal("sort changed nnz")
	}
}

func TestCoalesceSumsDuplicates(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{0, 1}, 1)
	ts.Append([]int32{0, 1}, 2)
	ts.Append([]int32{1, 0}, 5)
	ts.Coalesce()
	if ts.NNZ() != 2 {
		t.Fatalf("nnz after coalesce = %d", ts.NNZ())
	}
	total := 0.0
	for _, v := range ts.Vals {
		total += v
	}
	if total != 8 {
		t.Fatalf("coalesce lost mass: %v", total)
	}
}

func TestCoalesceDropsCancellation(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{0, 0}, 1)
	ts.Append([]int32{0, 0}, -1)
	ts.Append([]int32{1, 1}, 2)
	ts.Coalesce()
	if ts.NNZ() != 1 || ts.Vals[0] != 2 {
		t.Fatalf("cancellation not dropped: %v", ts.Vals)
	}
}

func TestCoalescePreservesNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := uint64(seed)
		next := func(n int) int32 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int32((rng >> 33) % uint64(n))
		}
		ts := New(4, 4)
		sum := 0.0
		for e := 0; e < 50; e++ {
			v := float64(next(10)) + 1
			ts.Append([]int32{next(4), next(4)}, v)
			sum += v
		}
		ts.Coalesce()
		got := 0.0
		for _, v := range ts.Vals {
			got += v
		}
		return got == sum && ts.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDensity(t *testing.T) {
	ts := buildTestTensor()
	want := 4.0 / 24.0
	if ts.Density() != want {
		t.Fatalf("density = %v", ts.Density())
	}
}

func TestReserveKeepsContents(t *testing.T) {
	ts := New(2, 2)
	ts.Append([]int32{1, 1}, 7)
	ts.Reserve(100)
	if ts.NNZ() != 1 || ts.Vals[0] != 7 || ts.Inds[0][0] != 1 {
		t.Fatal("Reserve corrupted contents")
	}
}
