package core

import (
	"runtime"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
)

// The steady-state inner iteration of every algorithm must be
// allocation-free: the begin phase compiles the per-slice plan and
// sizes all workspaces, after which the inner ALS loop — MTTKRP,
// historical term, Φ factorization, row solves, Gram refreshes, and the
// convergence check — runs entirely on Decomposer-owned storage. These
// are the regression tests the tentpole promises; a single closure or
// undersized buffer on the hot path fails them.
//
// Workers is pinned to 1 so every parallel helper takes its inline
// path regardless of GOMAXPROCS; the pool's own zero-spawn dispatch is
// covered by the parallel and mttkrp alloc tests with explicit pools.
//
// Every test runs with TrackFit and measures the tracked fit together
// with the iteration: its two rank-K vectors are Decomposer-owned.

func TestExplicitIterateZeroAlloc(t *testing.T) {
	// Both arms of the row update, on a short clustered stream and on
	// remapStream's one long, sparsely touched mode.
	long := remapStream(t, 406, 2)
	for _, tc := range []struct {
		name   string
		stream *sptensor.Stream
		con    admm.Constraint
	}{
		{"clustered", skewedStream(t, 314), nil},
		{"long mode", long, nil},
		{"long mode, NonNeg", long, admm.NonNeg{}},
	} {
		s := tc.stream
		d, err := NewDecomposer(s.Dims, Options{Rank: 4, Constraint: tc.con, Seed: 7, Workers: 1, TrackFit: true, MaxIters: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Prime cross-slice state (sHist growth, chol storage, psi).
		if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
			t.Fatal(err)
		}
		run, err := d.beginExplicit(sliceData{x: s.Slices[1]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.iterateExplicit(run); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.iterateExplicit(run); err != nil {
				t.Fatal(err)
			}
			d.sliceFit(sliceData{x: s.Slices[1]})
		})
		if allocs != 0 {
			t.Errorf("%s: inner iteration allocates %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

func TestSpCPIterateZeroAlloc(t *testing.T) {
	s := skewedStream(t, 314)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: SpCPStream, Seed: 7, Workers: 1, TrackFit: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	run, err := d.beginSpCP(s.Slices[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.iterateSpCP(run); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.iterateSpCP(run); err != nil {
			t.Fatal(err)
		}
		d.sliceFit(sliceData{x: s.Slices[1]})
	})
	if allocs != 0 {
		t.Errorf("spCP inner iteration allocates %.1f times per run, want 0", allocs)
	}
}

// TestStreamedIterateZeroAlloc is the same property with a block source
// as the explicit body's input: after one slice has grown the streamed
// kernel's buffers, compiling the next source's schedule, iterating on
// it and scoring its fit allocate nothing — with nothing resident, and
// with the arena holding every permutation and block of a source that
// decodes into the kernel's buffers.
func TestStreamedIterateZeroAlloc(t *testing.T) {
	for _, resident := range []bool{false, true} {
		// The skewed stream's dense state alone is more than a slice's
		// resident estimate: a budget with room for the arena would not
		// stream it.
		s := skewedStream(t, 314)
		if resident {
			s = testStream(t, 315, []int{40, 30, 50}, 1500, 2)
		}
		opt := Options{Rank: 4, Algorithm: Optimized, Seed: 7, Workers: 1, TrackFit: true, MemBudget: 1}
		var srcs []sptensor.BlockSource
		for _, x := range s.Slices[:2] {
			blocks, err := sptensor.SplitBlocks(x, 120)
			if err != nil {
				t.Fatal(err)
			}
			srcs = append(srcs, &countingSource{BlockSource: blocks, decode: resident})
		}
		if resident {
			// Room for all of the larger slice.
			for _, src := range srcs {
				budget, _, _ := budgetFor(opt, src, len(s.Dims)*src.Blocks(), src.Blocks())
				opt.MemBudget = max(opt.MemBudget, budget)
			}
		}
		d, err := NewDecomposer(s.Dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ProcessBlockSlice(srcs[0]); err != nil {
			t.Fatal(err)
		}
		in := sliceData{src: srcs[1]}
		run, err := d.beginExplicit(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.iterateExplicit(run); err != nil { // warm scratch
			t.Fatal(err)
		}
		if got := d.LastResidency(); d.LastEvalMode() != perfmodel.EvalStreamed || resident != (got.Share() == 1) {
			t.Fatalf("resident=%v: evaluated %v with %+v resident", resident, d.LastEvalMode(), got)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := d.streamKernel().Begin(srcs[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := d.iterateExplicit(run); err != nil {
				t.Fatal(err)
			}
			if _, err := d.sliceFit(in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("resident=%v: streamed inner iteration allocates %.1f times per run, want 0", resident, allocs)
		}
	}
}

// TestSpCPSliceRoundAllocs bounds what a whole spCP-stream slice —
// beginSpCP, an iteration, finishSpCP — allocates once the Decomposer's
// grow-only matrices have reached the stream's nz counts: the remap, the
// compiled plan, the two set differences per mode and the appended sₜ
// row, together fewer bytes than the slice's A_nz alone (0.43 × here). (The parent
// allocated A_nz, its A_{t−1} gather, Ψ_nz and the gathers of the rows
// that moved afresh every slice: five to six times A_nz.)
func TestSpCPSliceRoundAllocs(t *testing.T) {
	s := remapStream(t, 406, 6)
	d, err := NewDecomposer(s.Dims, Options{Rank: 16, Algorithm: SpCPStream, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices { // grow every buffer to the largest slice
		if _, err := d.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	for i, x := range s.Slices {
		runtime.ReadMemStats(&before)
		run, err := d.beginSpCP(x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.iterateSpCP(run); err != nil {
			t.Fatal(err)
		}
		d.finishSpCP(run)
		runtime.ReadMemStats(&after)
		aNz := 0
		for _, nz := range run.rm.NZ {
			aNz += 8 * d.k * len(nz)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if got >= uint64(aNz) {
			t.Errorf("slice %d: a spCP slice round allocates %d bytes, its A_nz is %d", i, got, aNz)
		}
	}
}
