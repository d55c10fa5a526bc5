package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/perfmodel"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
)

func sameMatrixBits(t *testing.T, label string, a, b *dense.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				t.Fatalf("%s: element (%d,%d) differs: %g vs %g", label, i, j, ra[j], rb[j])
			}
		}
	}
}

// TestStreamedMatchesInMemory is the committed equivalence property of
// the out-of-core engine: a slice streamed block-by-block from an
// .spblk file under a tiny memory budget must produce bit-identical
// factors, temporal weights, temporal Gram, fit, and convergence
// trajectory to the in-memory path on the materialized concatenation,
// for worker counts below, at, and above the pool size.
func TestStreamedMatchesInMemory(t *testing.T) {
	dims := []int{40, 30, 50}
	stream := testStream(t, 11, dims, 1500, 4)
	dir := t.TempDir()
	for _, workers := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := Options{
				Rank:         8,
				Algorithm:    Optimized,
				MTTKRPKernel: KernelPlan,
				Layout:       LayoutOff,
				Workers:      workers,
				TrackFit:     true,
				Seed:         7,
			}
			mem, err := NewDecomposer(dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			optS := opt
			optS.MemBudget = 1 // a single nonzero busts it: always streamed
			str, err := NewDecomposer(dims, optS)
			if err != nil {
				t.Fatal(err)
			}
			for ti, x := range stream.Slices {
				path := filepath.Join(dir, fmt.Sprintf("w%d-t%d.spblk", workers, ti))
				if err := ooc.WriteTensor(path, x, 400); err != nil {
					t.Fatal(err)
				}
				r, err := ooc.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				resS, errS := str.ProcessBlockSlice(r)
				if errS != nil {
					t.Fatalf("slice %d streamed: %v", ti, errS)
				}
				if got := str.LastEvalMode(); got != perfmodel.EvalStreamed {
					t.Fatalf("slice %d: eval mode %v, want streamed", ti, got)
				}
				// The in-memory twin consumes the same entry order the
				// blocks deliver: the materialized concatenation.
				twin, err := sptensor.MaterializeBlocks(r)
				if err != nil {
					t.Fatal(err)
				}
				r.Close()
				resM, errM := mem.ProcessSlice(twin)
				if errM != nil {
					t.Fatalf("slice %d in-memory: %v", ti, errM)
				}
				if resS.Iters != resM.Iters || resS.Converged != resM.Converged {
					t.Fatalf("slice %d: iters %d/%v vs %d/%v", ti, resS.Iters, resS.Converged, resM.Iters, resM.Converged)
				}
				if math.Float64bits(resS.Delta) != math.Float64bits(resM.Delta) {
					t.Fatalf("slice %d: δ %g vs %g", ti, resS.Delta, resM.Delta)
				}
				if math.Float64bits(resS.Fit) != math.Float64bits(resM.Fit) {
					t.Fatalf("slice %d: fit %g vs %g", ti, resS.Fit, resM.Fit)
				}
				for n := range dims {
					sameMatrixBits(t, fmt.Sprintf("slice %d factor %d", ti, n), str.Factor(n), mem.Factor(n))
				}
				for j, v := range str.LastS() {
					if math.Float64bits(v) != math.Float64bits(mem.LastS()[j]) {
						t.Fatalf("slice %d: s[%d] differs", ti, j)
					}
				}
				sameMatrixBits(t, fmt.Sprintf("slice %d temporal Gram", ti), str.TemporalGram(), mem.TemporalGram())
			}
		})
	}
}

// TestBlockSliceMaterializes checks the other side of the budget: with
// room to spare (or no budget at all) ProcessBlockSlice materializes
// and takes the regular in-memory path, byte-identical to ProcessSlice.
func TestBlockSliceMaterializes(t *testing.T) {
	dims := []int{25, 20, 30}
	stream := testStream(t, 5, dims, 800, 3)
	// Optimized, not the zero-value Baseline: two Baseline runs differ in
	// the last bits above one worker (lock-order MTTKRP, by design).
	opt := Options{Rank: 6, Algorithm: Optimized, MemBudget: 1 << 30, TrackFit: true, Seed: 3}
	blocked, err := NewDecomposer(dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewDecomposer(dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ti, x := range stream.Slices {
		src, err := sptensor.SplitBlocks(x, 300)
		if err != nil {
			t.Fatal(err)
		}
		resB, errB := blocked.ProcessBlockSlice(src)
		if errB != nil {
			t.Fatalf("slice %d blocked: %v", ti, errB)
		}
		if got := blocked.LastEvalMode(); got != perfmodel.EvalInMemory {
			t.Fatalf("slice %d: eval mode %v, want in-memory", ti, got)
		}
		resP, errP := plain.ProcessSlice(x)
		if errP != nil {
			t.Fatalf("slice %d plain: %v", ti, errP)
		}
		if math.Float64bits(resB.Fit) != math.Float64bits(resP.Fit) {
			t.Fatalf("slice %d: fit %g vs %g", ti, resB.Fit, resP.Fit)
		}
		for n := range dims {
			sameMatrixBits(t, fmt.Sprintf("slice %d factor %d", ti, n), blocked.Factor(n), plain.Factor(n))
		}
	}
}

// TestBlockSliceShapeChecks verifies source validation and the guarded
// input scan on the streamed path.
func TestBlockSliceShapeChecks(t *testing.T) {
	dims := []int{10, 12, 14}
	d, err := NewDecomposer(dims, Options{Rank: 4, MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessBlockSlice(nil); err == nil {
		t.Fatal("nil source accepted")
	}
	wrong := sptensor.New(10, 12)
	wrong.Append([]int32{1, 2}, 1)
	src, err := sptensor.SplitBlocks(wrong, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessBlockSlice(src); err == nil {
		t.Fatal("wrong-rank source accepted")
	}

	// A NaN nonzero must be caught by the streamed input scan and, under
	// SkipSlice, leave the decomposer at its pre-slice state.
	guarded, err := NewDecomposer(dims, Options{
		Rank:       4,
		MemBudget:  1,
		Resilience: &resilience.Config{Policy: resilience.SkipSlice},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := sptensor.New(dims...)
	bad.Append([]int32{1, 2, 3}, 4)
	bad.Append([]int32{5, 6, 7}, math.NaN())
	badSrc, err := sptensor.SplitBlocks(bad, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := guarded.T()
	res, err := guarded.ProcessBlockSlice(badSrc)
	if !errors.Is(err, resilience.ErrSliceSkipped) {
		t.Fatalf("want ErrSliceSkipped, got %v", err)
	}
	if !res.Skipped || guarded.T() != before {
		t.Fatalf("skip did not preserve state: skipped=%v t=%d", res.Skipped, guarded.T())
	}
}

// flakySource serves block bad a fixed number of times and then fails
// it — a block that goes away after the input scan and the schedule
// compile have read it, so the failure surfaces from a worker inside
// the kernel's pool dispatch.
type flakySource struct {
	sptensor.BlockSource
	bad   int
	good  int64
	calls atomic.Int64
}

func (f *flakySource) BlockInto(b int, buf *sptensor.BlockBuf) (*sptensor.Tensor, error) {
	if b == f.bad && f.calls.Add(1) > f.good {
		return nil, errors.New("flaky: block gone")
	}
	return f.BlockSource.BlockInto(b, buf)
}

// TestStreamedDecodeErrorRollsBack fails a streamed slice from inside
// the kernel two ways — a block that stops decoding mid-slice, and a
// byte-flipped .spblk with the input scan off so the kernel's own first
// read meets the bad CRC — and checks the guarded path treats both like
// any failed attempt: the error names the block, the slice is skipped,
// the model is bit for bit where it was, and the next good slice lands
// exactly where it does on a decomposer that never saw the failure.
func TestStreamedDecodeErrorRollsBack(t *testing.T) {
	dims := []int{40, 30, 50}
	stream := testStream(t, 13, dims, 1500, 2)
	dir := t.TempDir()
	var paths []string
	for ti, x := range stream.Slices {
		p := filepath.Join(dir, fmt.Sprintf("t%d.spblk", ti))
		if err := ooc.WriteTensor(p, x, 200); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	open := func(p string) *ooc.BlockReader {
		r, err := ooc.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	// Slice 1 again, one payload byte of block 3 flipped.
	good := open(paths[1])
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[good.BlockOffset(3)+12+8+1] ^= 0x10
	flipped := filepath.Join(dir, "flipped.spblk")
	if err := os.WriteFile(flipped, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, scan := range []bool{true, false} {
			opt := Options{Rank: 6, Algorithm: Optimized, Workers: workers, MemBudget: 1, Seed: 5}
			control, err := NewDecomposer(dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Resilience = &resilience.Config{Policy: resilience.SkipSlice, DisableInputScan: !scan}
			d, err := NewDecomposer(dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, dec := range []*Decomposer{control, d} {
				if _, err := dec.ProcessBlockSlice(open(paths[0])); err != nil {
					t.Fatal(err)
				}
			}
			var bad sptensor.BlockSource
			if scan {
				// The compile and the warm-start time mode read block 3; it
				// goes away during the first iteration's kernel passes, on
				// some worker of the pool, and stays away for the retry.
				bad = &flakySource{BlockSource: good, bad: 3, good: 4}
			} else {
				bad = open(flipped)
			}
			res, err := d.ProcessBlockSlice(bad)
			if !errors.Is(err, resilience.ErrSliceSkipped) || !strings.Contains(err.Error(), "mttkrp: block 3:") {
				t.Fatalf("workers=%d scan=%v: error %v, want a skipped slice naming block 3", workers, scan, err)
			}
			if st := d.ResilienceStats(); !res.Skipped || d.T() != 1 || st.Rollbacks != st.SliceRetries+1 || st.SlicesSkipped != 1 || st.PanicsRecovered != 0 {
				t.Fatalf("workers=%d scan=%v: skipped=%v t=%d stats=%+v", workers, scan, res.Skipped, d.T(), st)
			}
			for n := range dims {
				sameMatrixBits(t, fmt.Sprintf("workers=%d scan=%v rolled-back factor %d", workers, scan, n), d.Factor(n), control.Factor(n))
			}
			for _, dec := range []*Decomposer{control, d} {
				if _, err := dec.ProcessBlockSlice(open(paths[1])); err != nil {
					t.Fatal(err)
				}
			}
			for n := range dims {
				sameMatrixBits(t, fmt.Sprintf("workers=%d scan=%v next-slice factor %d", workers, scan, n), d.Factor(n), control.Factor(n))
			}
		}
	}
}
