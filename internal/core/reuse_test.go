package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/dense"
	"spstream/internal/perfmodel"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// The inner loop takes the time mode's right-hand side from the last
// factor mode's MTTKRP instead of a pass over the nonzeros (the row
// sweep's ψ). The tests below pin what that may and may not move: ψ
// agrees with the full pass to rounding, a streamed slice decodes its
// blocks once less per iteration, and the tracked fit reads the same ψ.
// What the sweep itself may move is pinned in sweep_test.go.

// reuseStream is remapStream with a chosen number of modes: one long
// mode that a slice touches a few percent of beside short ones.
func reuseStream(t testing.TB, seed uint64, modes, slices int) *sptensor.Stream {
	t.Helper()
	dists := []synth.IndexDist{synth.NewZipf(6000, 1.1), synth.Uniform{N: 60}, synth.NewZipf(80, 1.2), synth.Uniform{N: 12}}
	s, err := synth.Generate(synth.Config{
		Name: "reuse", Dists: dists[:modes], T: slices, NNZPerSlice: 600,
		Values: synth.ValuePlanted, PlantedRank: 3, NoiseStd: 0.01, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveSlice is runSlice's loop without the guard, calling after with
// the run every inner iteration: the slice's kernel view and the
// factors its kernels read.
func driveSlice(t *testing.T, d *Decomposer, in sliceData, iters int, after func(kin sliceData, kf []*dense.Matrix)) {
	t.Helper()
	defer d.kernel.End()
	run, err := d.beginSlice(in)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		if _, err := d.iterateSlice(run); err != nil {
			t.Fatal(err)
		}
		after(run.kin, run.fac)
	}
	if _, err := d.finishSlice(run); err != nil {
		t.Fatal(err)
	}
}

// TestTimeModeReuseMatchesFullPass: after every inner iteration the ψ
// the sₜ solve was handed equals a full time-mode pass over the same
// factors to 1e-12 of its largest entry, on every branch of both bodies.
func TestTimeModeReuseMatchesFullPass(t *testing.T) {
	const resident, streamed = 0, 1
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		for _, con := range []admm.Constraint{nil, admm.NonNeg{}} {
			if alg == SpCPStream && con != nil {
				continue // rejected (paper §VII)
			}
			for _, normalize := range []bool{false, true} {
				for modes := 2; modes <= 4; modes++ {
					for input := resident; input <= streamed; input++ {
						name := fmt.Sprintf("%v con=%v normalize=%v N=%d input=%d", alg, con != nil, normalize, modes, input)
						s := reuseStream(t, 500+uint64(modes), modes, 4)
						opt := Options{
							Rank: 4, Algorithm: alg, Constraint: con,
							Normalize: normalize, Workers: 2, Seed: 5,
							ADMMMaxIters: 5, // ψ is checked, not the ADMM optimum
						}
						if input == streamed {
							opt.MemBudget = 1
						}
						d, err := NewDecomposer(s.Dims, opt)
						if err != nil {
							t.Fatal(err)
						}
						full := make([]float64, d.k)
						for ti, x := range s.Slices {
							in := sliceData{x: x}
							if input == streamed {
								src, err := sptensor.SplitBlocks(x, 150)
								if err != nil {
									t.Fatal(err)
								}
								in = sliceData{src: src}
							}
							iter := 0
							driveSlice(t, d, in, 3, func(kin sliceData, kf []*dense.Matrix) {
								iter++
								if kin.src != nil {
									d.mt.TimeMode(full, x, kf) // the blocks' concatenation
								} else {
									d.mt.TimeMode(full, kin.x, kf)
								}
								scale := 0.0
								for _, v := range full {
									scale = math.Max(scale, math.Abs(v))
								}
								for j, v := range d.fitPsi {
									if diff := math.Abs(v - full[j]); diff > 1e-12*scale {
										t.Fatalf("%s slice %d iter %d: ψ[%d] = %g, full pass %g (|Δ| %g of %g)", name, ti, iter, j, v, full[j], diff, scale)
									}
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestWarmStartMatchesTimeMode: the warm start's ψ⁰, read off mode 0's
// MTTKRP over A_{t−1} by the row sweep, is the time-mode MTTKRP of the
// slice over A_{t−1} — within 1e-12 of a Computer.TimeMode pass, relative
// to its largest entry — on the first slice (A_{t−1} the random start)
// and the next, with z = ∅ on a resident slice, an spCP-stream slice
// (remapped, z set), a streamed slice and a NonNeg slice, and bit-equal
// at Workers 1, 2 and 4.
func TestWarmStartMatchesTimeMode(t *testing.T) {
	s := reuseStream(t, 71, 3, 2)
	for _, tc := range []struct {
		name     string
		opt      Options
		streamed bool
	}{
		{"resident", Options{Algorithm: Optimized}, false},
		{"spcp", Options{Algorithm: SpCPStream}, false},
		{"streamed", Options{Algorithm: Optimized, MemBudget: 1}, true},
		{"nonneg", Options{Algorithm: Optimized, Constraint: admm.NonNeg{}}, false},
	} {
		var first [][]float64
		for _, workers := range []int{1, 2, 4} {
			opt := tc.opt
			opt.Rank, opt.Seed, opt.Workers = 4, 8, workers
			d, err := NewDecomposer(s.Dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			for ti, x := range s.Slices {
				label := fmt.Sprintf("%s W=%d slice %d", tc.name, workers, ti)
				prev := make([]*dense.Matrix, len(s.Dims))
				for m := range prev {
					prev[m] = d.Factor(m).Clone()
				}
				in := sliceData{x: x}
				if tc.streamed {
					src, err := sptensor.SplitBlocks(x, 150)
					if err != nil {
						t.Fatal(err)
					}
					in = sliceData{src: src}
				}
				run, err := d.beginSlice(in)
				if err != nil {
					t.Fatal(err)
				}
				if (run.rm != nil) != (tc.opt.Algorithm == SpCPStream) {
					t.Fatalf("%s: z set %v", label, run.rm != nil)
				}
				full := make([]float64, d.k)
				d.mt.TimeMode(full, x, prev)
				scale := 0.0
				for _, v := range full {
					scale = math.Max(scale, math.Abs(v))
				}
				if scale == 0 {
					t.Fatalf("%s: the time-mode pass over A_{t−1} is zero", label)
				}
				for j, v := range d.fitPsi {
					if diff := math.Abs(v - full[j]); !(diff <= 1e-12*scale) {
						t.Fatalf("%s: ψ⁰[%d] = %g, time-mode pass %g (|Δ| %g of %g)", label, j, v, full[j], diff, scale)
					}
				}
				if workers == 1 {
					first = append(first, append([]float64(nil), d.fitPsi...))
				} else {
					sameMatrixBits(t, label+" ψ⁰ against W=1", dense.FromRows([][]float64{d.fitPsi}), dense.FromRows([][]float64{first[ti]}))
				}
				for it := 0; it < 3; it++ {
					if _, err := d.iterateSlice(run); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := d.finishSlice(run); err != nil {
					t.Fatal(err)
				}
				d.kernel.End()
			}
		}
	}
}

// countingSource counts block decodes, through either method. With
// decode set it serves BlockInto the way a reader does — copied into
// the caller's buffer — so the kernel may keep the blocks of a MemBlocks
// layout (empty and single-entry blocks included) in its arena.
type countingSource struct {
	sptensor.BlockSource
	decode  bool
	decodes atomic.Int64
}

func (c *countingSource) Block(b int) (*sptensor.Tensor, error) {
	c.decodes.Add(1)
	return c.BlockSource.Block(b)
}

func (c *countingSource) BlockInto(b int, buf *sptensor.BlockBuf) (*sptensor.Tensor, error) {
	c.decodes.Add(1)
	blk, err := c.BlockSource.BlockInto(b, buf)
	if err != nil || !c.decode {
		return blk, err
	}
	t := &buf.Tensor
	t.Dims, t.Vals = blk.Dims, append(t.Vals[:0], blk.Vals...)
	if len(t.Inds) != len(blk.Inds) {
		t.Inds = make([][]int32, len(blk.Inds))
	}
	for m, col := range blk.Inds {
		t.Inds[m] = append(t.Inds[m][:0], col...)
	}
	return t, nil
}

// budgetFor is the budget arithmetic written out forwards: the smallest
// Options.MemBudget at which a decomposer with these options keeps the
// first pairs (mode, block) pairs of src resident — mode-major — and the
// bytes they then take. An unconstrained decomposer's dense state is the
// factor, its spare version and Ψ per mode; a worker's streaming buffers
// are one decoded block and one sort scratch of the largest block; a
// resident pair holds its block's values and other-mode coordinates and
// a row and an end per segment, at most one segment per entry and per
// row.
func budgetFor(opt Options, src sptensor.BlockSource, pairs int) (budget, bytes int64) {
	dims, nb := src.Dims(), src.Blocks()
	n, largest, rows := len(dims), 0, 0
	for _, d := range dims {
		rows += 3 * d
	}
	for b := 0; b < nb; b++ {
		largest = max(largest, src.BlockNNZ(b))
	}
	for p := 0; p < pairs; p++ {
		bytes += pairBytes(n, src.BlockNNZ(p%nb), dims[p/nb])
	}
	return int64(8*opt.Rank*rows) + int64(opt.Workers*largest)*int64(4*n+12) + bytes, bytes
}

// streamingPairs is the most of src's pairs — all of them, if it can —
// that a budget keeps while src still streams (perfmodel.SelectEval): at
// four modes the row-order copies of every pair and the dense state
// outweigh the in-memory estimate, and a budget that holds them all
// materializes the slice instead.
func streamingPairs(opt Options, src sptensor.BlockSource) int {
	pairs := len(src.Dims()) * src.Blocks()
	for ; pairs > 0; pairs-- {
		if budget, _ := budgetFor(opt, src, pairs); perfmodel.SelectEval(src.NNZ(), len(src.Dims()), budget) == perfmodel.EvalStreamed {
			break
		}
	}
	return pairs
}

// pairBytes is what a resident (mode, block) pair of nnz entries in a
// mode of length dim takes, for n modes.
func pairBytes(n, nnz, dim int) int64 {
	return int64(nnz)*int64(4*(n-1)+8) + 8*int64(min(nnz, dim))
}

// raggedBlocks cuts x into consecutive-run blocks of up to 200 nonzeros
// with an empty block and a single-entry (so single-row) block among
// them.
func raggedBlocks(t testing.TB, x *sptensor.Tensor) *sptensor.MemBlocks {
	t.Helper()
	var blocks []*sptensor.Tensor
	for lo, i := 0, 0; lo < x.NNZ(); i++ {
		n := 200
		if i < 4 {
			n = []int{200, 0, 1, 99}[i]
		}
		hi := min(lo+n, x.NNZ())
		b := &sptensor.Tensor{Dims: x.Dims, Inds: make([][]int32, x.NModes()), Vals: x.Vals[lo:hi]}
		for m := range b.Inds {
			b.Inds[m] = x.Inds[m][lo:hi]
		}
		blocks = append(blocks, b)
		lo = hi
	}
	src, err := sptensor.NewMemBlocks(x.Dims, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStreamedDecodeCount is the count behind both claims, in the
// kernel's unit of residency, the (mode, block) pair. A streamed slice
// decodes every block once for the compile (which also sums ‖X‖² for the
// fit, whose ⟨X, X̂⟩ costs no pass either); after that a resident pair
// costs no decode, and a pair that is not resident costs one per pass of
// its mode — iters per factor mode, the warm start's mode-0 pass
// standing for the first iteration's, and no time-mode pass at all. With nothing resident that is 61 decodes
// of every block for three modes at 20 iterations; with everything
// resident, one (at four modes, as much as still streams:
// streamingPairs). One worker, so that a pass is exactly one decode of
// each block that holds anything; an empty block is only ever opened by
// the compile. The guarded run counts the same: its input scan is the
// compile, where a separate scan used to decode every block once more.
func TestStreamedDecodeCount(t *testing.T) {
	const iters = 20
	for modes := 2; modes <= 4; modes++ {
		dims := []int{60, 50, 40, 12}[:modes]
		s := testStream(t, 70, dims, 1500, 2)
		if passes := 1 + modes*iters; modes == 3 && passes != 61 {
			t.Fatalf("three modes make %d passes, want 61", passes)
		}
		first := raggedBlocks(t, s.Slices[0])
		base := Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 2, MaxIters: iters, Tol: 1e-300}
		full := streamingPairs(base, first)
		for _, keep := range []int{-1, first.Blocks() + 2, full - 3, full} {
			for _, guarded := range []bool{false, true} {
				label := fmt.Sprintf("N=%d pairs=%d guarded=%v", modes, keep, guarded)
				opt := base
				var bytes int64
				if opt.MemBudget = 1; keep >= 0 {
					opt.MemBudget, bytes = budgetFor(opt, first, keep)
				}
				if guarded {
					opt.Resilience = &resilience.Config{Policy: resilience.Abort}
				}
				d, err := NewDecomposer(dims, opt)
				if err != nil {
					t.Fatal(err)
				}
				for ti, x := range s.Slices {
					blocks := raggedBlocks(t, x)
					src := &countingSource{BlockSource: blocks, decode: true}
					res, err := d.ProcessBlockSlice(src)
					if err != nil || res.Iters != iters || d.LastEvalMode() != perfmodel.EvalStreamed {
						t.Fatalf("%s slice %d: %d iterations, %v, %v", label, ti, res.Iters, d.LastEvalMode(), err)
					}
					got := d.LastResidency()
					if ti == 0 && got.Bytes != bytes {
						t.Fatalf("%s: resident %+v, want %d bytes", label, got, bytes)
					}
					// Pair p is resident when the pairs up to it fit in what
					// the kernel holds.
					want, held, n := int64(blocks.Blocks()), int64(0), blocks.Blocks()
					for p := 0; p < modes*n; p++ {
						m, nnz := p/n, blocks.BlockNNZ(p%n)
						if held += pairBytes(modes, nnz, dims[m]); nnz > 0 && held > got.Bytes {
							want += iters
						}
					}
					if c := src.decodes.Load(); c != want {
						t.Fatalf("%s slice %d: %d block decodes, want %d (%d blocks, %+v resident)", label, ti, c, want, n, got)
					}
				}
			}
		}
	}
}

// TestTrackedFitReusesIterationPsi: under default options every slice's
// fit is computed, takes ⟨X, X̂⟩ from the last inner iteration's ψ, is
// finite and agrees with FitOf — a full pass — on the same slice; a ψ
// from an attempt that failed is never the one read (poisoned when the
// attempt fails, the retried slice still lands on the undisturbed
// control's bits), and nothing of the slice's ψ is left for a later
// FitOf of another slice.
func TestTrackedFitReusesIterationPsi(t *testing.T) {
	dims := []int{40, 30, 50}
	stream := testStream(t, 37, dims, 1500, 3)
	for _, alg := range []Algorithm{Optimized, SpCPStream} {
		for _, streamed := range []bool{false, true} {
			name := fmt.Sprintf("%v streamed=%v", alg, streamed)
			opt := Options{Rank: 5, Algorithm: alg, Workers: 2, Seed: 6, MaxIters: 4, Tol: 1e-300}
			if streamed {
				opt.MemBudget = 1
			}
			control, err := NewDecomposer(dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			failed := false
			var d *Decomposer
			opt.Resilience = &resilience.Config{
				Policy: resilience.RetrySlice, DisableInputScan: true,
				FaultHook: func(f resilience.Fault) error {
					// After two iterations of slice 1's first attempt have
					// each left their ψ behind.
					if f.Stage == resilience.StageIterate && f.Slice == 1 && f.Iter == 3 && f.Attempt == 0 {
						failed = true
						for j := range d.fitPsi {
							d.fitPsi[j] = math.NaN()
						}
						return errors.New("injected")
					}
					return nil
				},
			}
			d, err = NewDecomposer(dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			for ti, x := range stream.Slices {
				var fits [2]float64
				for i, dec := range []*Decomposer{control, d} {
					src, err := sptensor.SplitBlocks(x, 400)
					if err != nil {
						t.Fatal(err)
					}
					res, err := dec.ProcessBlockSlice(src)
					if err != nil {
						t.Fatalf("%s slice %d: %v", name, ti, err)
					}
					fits[i] = res.Fit
					if math.IsNaN(res.Fit) || math.IsInf(res.Fit, 0) {
						t.Fatalf("%s slice %d: fit %v", name, ti, res.Fit)
					}
					if own, err := dec.FitOf(x); err != nil || math.Abs(own-res.Fit) > 1e-12 {
						t.Fatalf("%s slice %d: tracked fit %.15g, FitOf %.15g (%v)", name, ti, res.Fit, own, err)
					}
				}
				if math.Float64bits(fits[0]) != math.Float64bits(fits[1]) {
					t.Fatalf("%s slice %d: fit %.17g after a retry, control %.17g", name, ti, fits[1], fits[0])
				}
			}
			if !failed || d.ResilienceStats().SliceRetries != 1 {
				t.Fatalf("%s: fault injected %v, stats %+v", name, failed, d.ResilienceStats())
			}
			// Another slice than the one just solved: a full pass again.
			other := stream.Slices[0]
			got, err := d.FitOf(other)
			if err != nil {
				t.Fatal(err)
			}
			psi := make([]float64, d.k)
			d.mt.TimeMode(psi, other, d.factors())
			had := dense.NewMatrix(d.k, d.k)
			had.Fill(1)
			for m := range d.modes {
				dense.Hadamard(had, had, d.modes[m].c)
			}
			tmp := make([]float64, d.k)
			dense.MulVec(tmp, had, d.s)
			want := 1 - math.Sqrt(math.Max(0, other.Norm2()-2*dense.Dot(d.s, psi)+dense.Dot(d.s, tmp))/other.Norm2())
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: FitOf another slice %.15g, from its own pass %.15g", name, got, want)
			}
		}
	}
}
