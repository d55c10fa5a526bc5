package core

import (
	"io"
	"runtime"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/dense"
	"spstream/internal/perfmodel"
	"spstream/internal/resilience"
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
		run, err := d.beginSlice(sliceData{x: s.Slices[1]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.iterateSlice(run); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.iterateSlice(run); err != nil {
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
	run, err := d.beginSlice(sliceData{x: s.Slices[1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.iterateSlice(run); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.iterateSlice(run); err != nil {
			t.Fatal(err)
		}
		d.sliceFit(sliceData{x: s.Slices[1]})
	})
	if allocs != 0 {
		t.Errorf("spCP inner iteration allocates %.1f times per run, want 0", allocs)
	}
}

// TestZTransformZeroAlloc: constrained spCP-stream's z-row transform
// projects every transformed row through the Constraint interface;
// once the per-worker scratch rows exist, that allocates nothing.
func TestZTransformZeroAlloc(t *testing.T) {
	const rows, k = 37, 4
	d, err := NewDecomposer([]int{rows, 9}, Options{Rank: k, Algorithm: SpCPStream, ConstrainedSpCP: true,
		Constraint: admm.NonNeg{}, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, tr := dense.NewMatrix(rows, k), dense.Identity(k)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	nz := []int32{0, 5, 20}
	isNZ := d.markNZ(rows, nz)
	defer d.unmarkNZ(nz)
	d.applyZTransform(a, a, isNZ, tr) // grow the scratch rows
	if n := testing.AllocsPerRun(20, func() { d.applyZTransform(a, a, isNZ, tr) }); n != 0 {
		t.Errorf("constrained z-row transform allocates %.1f times per call, want 0", n)
	}
}

// TestStreamedIterateZeroAlloc is the same property with a block source
// as the slice body's input: after one slice has grown the streamed
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
		run, err := d.beginSlice(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.iterateSlice(run); err != nil { // warm scratch
			t.Fatal(err)
		}
		if got := d.LastResidency(); d.LastEvalMode() != perfmodel.EvalStreamed || resident != (got.Share() == 1) {
			t.Fatalf("resident=%v: evaluated %v with %+v resident", resident, d.LastEvalMode(), got)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := d.streamKernel().Begin(srcs[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := d.iterateSlice(run); err != nil {
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
// beginSlice, an iteration, finishSlice — allocates once the Decomposer's
// grow-only matrices have reached the stream's nz counts: the remap, the
// compiled plan, the two set differences per mode and the appended sₜ
// row, together fewer bytes than the slice's A_nz alone (≈ 0.09 × here). (The parent
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
		run, err := d.beginSlice(sliceData{x: x})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.iterateSlice(run); err != nil {
			t.Fatal(err)
		}
		if _, err := d.finishSlice(run); err != nil {
			t.Fatal(err)
		}
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

// TestGuardedCommitZeroAlloc is the commit half of a guarded spCP-stream
// slice once the decomposer alternates between its two versions, with a
// publisher holding the committed one the way the serve snapshot does:
// the rollback point pins the committed version, finishZ claims the
// spare because of it, the commit swaps, the rollback point lets go, and
// the hook pins the new version and releases the old. None of it
// allocates — a commit copies nothing.
func TestGuardedCommitZeroAlloc(t *testing.T) {
	s := skewedStream(t, 314)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: SpCPStream, Seed: 7, Workers: 1,
		Resilience: &resilience.Config{Policy: resilience.SkipSlice}})
	if err != nil {
		t.Fatal(err)
	}
	var published *Version
	d.SetCommitHook(func(SliceResult) {
		v := d.Committed()
		v.Pin()
		if published != nil {
			published.Release()
		}
		published = v
	})
	d.commitHook(SliceResult{})
	for _, x := range s.Slices[:3] {
		if _, err := d.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	versions := map[*Version]bool{d.cur: true, d.spare: true}
	allocs := testing.AllocsPerRun(50, func() {
		d.takeSnapshot()
		d.commit(d.claimSpare())
		d.releaseSnapshot()
		d.commitHook(SliceResult{T: d.t})
	})
	if allocs != 0 {
		t.Errorf("guarded commit and publish allocate %.1f times per slice, want 0", allocs)
	}
	if !versions[d.cur] || !versions[d.spare] || d.cur == d.spare || d.parked != nil {
		t.Errorf("commits left cur %p spare %p parked %p, want the two versions %v", d.cur, d.spare, d.parked, versions)
	}
}

// TestSaveStateAllocsFlat: SaveState encodes through one buffer, so what
// it allocates does not grow with the factors.
func TestSaveStateAllocsFlat(t *testing.T) {
	var allocs []float64
	for _, rows := range []int{50, 5000} {
		s := testStream(t, 308, []int{rows, 30}, 300, 2)
		d, _ := runStream(t, s, Options{Rank: 8, Algorithm: SpCPStream, Seed: 2, Workers: 1})
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			if err := d.SaveState(io.Discard); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Errorf("SaveState allocates %.0f times at I₀ = 50 and %.0f at I₀ = 5000, want the same", allocs[0], allocs[1])
	}
}
