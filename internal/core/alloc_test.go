package core

import (
	"testing"

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
	for _, alg := range []Algorithm{Optimized} {
		s := skewedStream(t, 314)
		d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: alg, Seed: 7, Workers: 1, TrackFit: true})
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
			t.Errorf("%v inner iteration allocates %.1f times per run, want 0", alg, allocs)
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
// it and scoring its fit allocate nothing.
func TestStreamedIterateZeroAlloc(t *testing.T) {
	s := skewedStream(t, 314)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: Optimized, Seed: 7, Workers: 1, TrackFit: true, MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	var srcs []sptensor.BlockSource
	for _, x := range s.Slices[:2] {
		src, err := sptensor.SplitBlocks(x, 120)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
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
		t.Errorf("streamed inner iteration allocates %.1f times per run, want 0", allocs)
	}
}
