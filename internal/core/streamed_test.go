package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"spstream/internal/admm"
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
				Rank:      8,
				Algorithm: Optimized,
				Workers:   workers,
				TrackFit:  true,
				Seed:      7,
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

// TestStreamedResidentMatchesInMemory is the same equivalence with the
// idle budget spent: whatever share of a slice's permutations and blocks
// the kernel keeps between passes — nothing (MemBudget 1), some
// permutations only, all of them and a block prefix, everything — the
// factors, sₜ, δ and tracked fit equal the in-memory run's
// bit for bit, at 1, 2 and 4 workers, for 2-, 3- and 4-mode slices cut
// into ragged blocks with an empty and a single-row one among them, and
// the decomposer reports the share it used.
func TestStreamedResidentMatchesInMemory(t *testing.T) {
	for modes := 2; modes <= 4; modes++ {
		dims := []int{60, 50, 40, 12}[:modes]
		stream := testStream(t, 19, dims, 1500, 3)
		for _, workers := range []int{1, 2, 4} {
			opt := Options{Rank: 4, Algorithm: Optimized, Workers: workers, TrackFit: true, Seed: 7, MaxIters: 4, Tol: 1e-300}
			first := raggedBlocks(t, stream.Slices[0])
			nb := first.Blocks()
			for _, keep := range [][2]int{{-1, 0}, {nb + 2, 0}, {modes * nb, 4}, {modes * nb, nb}} {
				label := fmt.Sprintf("N=%d workers=%d pairs=%d blocks=%d", modes, workers, keep[0], keep[1])
				mem, err := NewDecomposer(dims, opt)
				if err != nil {
					t.Fatal(err)
				}
				optS := opt
				var permBytes, blockBytes int64
				if optS.MemBudget = 1; keep[0] >= 0 {
					optS.MemBudget, permBytes, blockBytes = budgetFor(optS, first, keep[0], keep[1])
				}
				str, err := NewDecomposer(dims, optS)
				if err != nil {
					t.Fatal(err)
				}
				for ti, x := range stream.Slices {
					resS, errS := str.ProcessBlockSlice(&countingSource{BlockSource: raggedBlocks(t, x), decode: true})
					resM, errM := mem.ProcessSlice(x)
					if errS != nil || errM != nil || str.LastEvalMode() != perfmodel.EvalStreamed {
						t.Fatalf("%s slice %d: streamed %v (%v), in-memory %v", label, ti, errS, str.LastEvalMode(), errM)
					}
					if got := str.LastResidency(); ti == 0 && (got.PermBytes != permBytes || got.BlockBytes != blockBytes) || keep[0] < 0 && got.Share() != 0 {
						t.Fatalf("%s slice %d: resident %+v, want %d permutation and %d block bytes on slice 0", label, ti, got, permBytes, blockBytes)
					}
					if math.Float64bits(resS.Delta) != math.Float64bits(resM.Delta) || math.Float64bits(resS.Fit) != math.Float64bits(resM.Fit) {
						t.Fatalf("%s slice %d: δ %g fit %g, in-memory δ %g fit %g", label, ti, resS.Delta, resS.Fit, resM.Delta, resM.Fit)
					}
					for n := range dims {
						sameMatrixBits(t, fmt.Sprintf("%s slice %d factor %d", label, ti, n), str.Factor(n), mem.Factor(n))
					}
					if !slices.Equal(str.LastS(), mem.LastS()) {
						t.Fatalf("%s slice %d: sₜ differs", label, ti)
					}
				}
			}
		}
	}
}

// TestBlockSliceMaterializes checks the other side of the budget: with
// room to spare (or no budget at all) ProcessBlockSlice materializes
// and takes the regular in-memory path, byte-identical to ProcessSlice.
func TestBlockSliceMaterializes(t *testing.T) {
	dims := []int{25, 20, 30}
	stream := testStream(t, 5, dims, 800, 3)
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

// flakySource serves block bad a fixed number of times, or until armed,
// and then fails it (or panics) — a block that goes away after the input
// scan and the schedule compile have read it, so the failure surfaces
// from a worker inside the kernel's pool dispatch.
type flakySource struct {
	sptensor.BlockSource
	bad    int
	good   int64
	panics bool
	calls  atomic.Int64
	armed  atomic.Bool
}

func (f *flakySource) BlockInto(b int, buf *sptensor.BlockBuf) (*sptensor.Tensor, error) {
	if b == f.bad && (f.armed.Load() || f.calls.Add(1) > f.good) {
		if f.panics {
			panic("flaky: block gone")
		}
		return nil, errors.New("flaky: block gone")
	}
	return f.BlockSource.BlockInto(b, buf)
}

// TestStreamedDecodeErrorRollsBack fails a streamed slice from inside
// the kernel — a byte-flipped .spblk with the input scan off, so the
// kernel's own first read meets the bad CRC, and a block that stops
// decoding at a chosen pass of the slice — and checks the guarded path
// treats each like any failed attempt: the error names the block, the
// slice is skipped, the model is bit for bit where it was with no ψ of
// the lost attempts left to read, and the next good slice lands exactly
// where it does on a decomposer that never saw the failure, tracked fit
// included.
//
// A slice's passes, each decoding every block once per worker that
// needs it: the schedule compile (once, on the caller), the warm-start
// time mode, then one MTTKRP per factor mode per inner iteration. Block
// 3's decodes before a pass are counted from that; the pass sₜ now
// depends on — the last mode of the last iteration — is reached at any
// worker count by arming the source from the fault hook, which every
// mode's Φ factorization calls.
//
// All of it twice: with nothing resident (MemBudget 1), and with a
// budget that keeps every permutation and blocks 0–3 of 8. There the
// flipped byte sits in a resident block and surfaces when Begin fills
// the arena, and the block that goes away is one of the streamed
// remainder, met at its pass. The next good slice is other data served
// through the failed source's own address: had the kernel kept anything
// of the lost attempt, the bits would show it.
func TestStreamedDecodeErrorRollsBack(t *testing.T) {
	dims := []int{40, 30, 50}
	const iters = 3
	stream := testStream(t, 13, dims, 1500, 3)
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
	const compile, warmStart = 1, 1
	cases := []struct {
		name string
		scan bool
		// good is how many decodes of block 3 succeed; negative arms the
		// source at the last mode of the last iteration instead.
		good int64
	}{
		{"flipped byte, first read", false, 0},
		{"warm-start time mode", true, compile},
		{"first iteration, last mode", true, int64(compile + warmStart + len(dims) - 1)},
		{"last iteration, last mode", true, -1},
	}
	for _, run := range []struct{ workers, flaky int }{{1, 3}, {2, 3}, {4, 3}, {1, 6}, {2, 6}, {4, 6}} {
		for _, tc := range cases {
			workers, partial := run.workers, run.flaky != 3
			label := fmt.Sprintf("workers=%d partial=%v %s", workers, partial, tc.name)
			opt := Options{Rank: 6, Algorithm: Optimized, Workers: workers, MemBudget: 1, Seed: 5, TrackFit: true, MaxIters: iters, Tol: 1e-300}
			control, err := NewDecomposer(dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			var arm *flakySource
			factorized := 0
			opt.Resilience = &resilience.Config{
				Policy: resilience.SkipSlice, DisableInputScan: !tc.scan,
				FaultHook: func(f resilience.Fault) error {
					if arm != nil && f.Stage == resilience.StageFactorize && f.Iter == iters && f.Attempt == 0 {
						if factorized++; factorized == len(dims) {
							arm.armed.Store(true)
						}
					}
					return nil
				},
			}
			if partial {
				opt.MemBudget, _, _ = budgetFor(opt, good, len(dims)*good.Blocks(), 4)
			}
			d, err := NewDecomposer(dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, dec := range []*Decomposer{control, d} {
				if _, err := dec.ProcessBlockSlice(open(paths[0])); err != nil {
					t.Fatal(err)
				}
			}
			bad, badBlock := &flakySource{BlockSource: open(flipped), bad: -1}, 3
			if tc.scan {
				// The block goes away on some worker of the pool, and stays
				// away for the retry.
				bad, badBlock = &flakySource{BlockSource: good, bad: run.flaky, good: tc.good}, run.flaky
				if tc.good < 0 {
					bad.good, arm = math.MaxInt64, bad
				}
			}
			res, err := d.ProcessBlockSlice(bad)
			if !errors.Is(err, resilience.ErrSliceSkipped) || !strings.Contains(err.Error(), fmt.Sprintf("mttkrp: block %d:", badBlock)) {
				t.Fatalf("%s: error %v, want a skipped slice naming block %d", label, err, badBlock)
			}
			if arm != nil && !arm.armed.Load() {
				t.Fatalf("%s: the slice failed before its last pass", label)
			}
			arm = nil
			if st := d.ResilienceStats(); !res.Skipped || d.T() != 1 || st.Rollbacks != st.SliceRetries+1 || st.SlicesSkipped != 1 || st.PanicsRecovered != 0 {
				t.Fatalf("%s: skipped=%v t=%d stats=%+v", label, res.Skipped, d.T(), st)
			}
			if d.psiFresh {
				t.Fatalf("%s: the lost attempt's ψ is still marked fresh", label)
			}
			for n := range dims {
				sameMatrixBits(t, fmt.Sprintf("%s rolled-back factor %d", label, n), d.Factor(n), control.Factor(n))
			}
			// A new reader at the failed source's address.
			bad.BlockSource, bad.bad = open(paths[2]), -1
			bad.armed.Store(false)
			var fits [2]float64
			for i, dec := range []*Decomposer{control, d} {
				res, err := dec.ProcessBlockSlice([]sptensor.BlockSource{open(paths[2]), bad}[i])
				if err != nil {
					t.Fatal(err)
				}
				fits[i] = res.Fit
			}
			if math.Float64bits(fits[0]) != math.Float64bits(fits[1]) {
				t.Fatalf("%s: next slice's fit %.17g, control %.17g", label, fits[1], fits[0])
			}
			if got := d.LastResidency(); partial != (got.BlockBytes > 0) {
				t.Fatalf("%s: next slice resident %+v", label, got)
			}
			for n := range dims {
				sameMatrixBits(t, fmt.Sprintf("%s next-slice factor %d", label, n), d.Factor(n), control.Factor(n))
			}
		}
	}
}

// relFactorDiff is the largest factor difference between two
// decomposers relative to the largest factor entry.
func relFactorDiff(a, b *Decomposer) float64 {
	scale := 0.0
	for m := range a.Dims() {
		for _, v := range a.Factor(m).Data {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	return maxFactorDiff(a, b) / scale
}

// TestSpCPStreamMixedEval streams two over-budget slices through a
// spCP-stream decomposer between resident ones. The streamed slices run
// the explicit body, which moves every row outside the Gram-form
// bookkeeping, so the next spCP slice must rebuild C_z,t−1 from scratch:
// the incremental run has to land where the DirectCz run (which always
// rebuilds) does. The incremental run also loses the first slice after
// the streamed ones to a failed health check, after that slice's finish
// has recorded its nz sets: the rollback has to forget them again.
func TestSpCPStreamMixedEval(t *testing.T) {
	dims := []int{30, 2000, 20}
	slices := testStream(t, 17, dims, 300, 6).Slices
	big := testStream(t, 18, dims, 3000, 6).Slices
	slices[2], slices[3] = big[2], big[3]
	run := func(direct bool) *Decomposer {
		d, err := NewDecomposer(dims, Options{
			Rank: 6, Algorithm: SpCPStream, DirectCz: direct, Seed: 3,
			MemBudget:  perfmodel.ResidentBytes(1000, 3),
			Resilience: &resilience.Config{Policy: resilience.SkipSlice},
		})
		if err != nil {
			t.Fatal(err)
		}
		feed := func(x *sptensor.Tensor) error {
			src, err := sptensor.SplitBlocks(x, 500)
			if err != nil {
				t.Fatal(err)
			}
			_, err = d.ProcessBlockSlice(src)
			return err
		}
		full := d.MaxIters()
		for ti, x := range slices {
			if ti == 0 {
				d.SetMaxIters(1) // a cold first slice, as the benchmark feeds it
			}
			if ti == 4 && !direct {
				maxDelta := d.opt.Resilience.MaxDelta
				d.opt.Resilience.MaxDelta = 0
				if err := feed(x); !errors.Is(err, resilience.ErrSliceSkipped) {
					t.Fatalf("slice 4 under MaxDelta 0: %v, want a skipped slice", err)
				}
				if d.prevNZ != nil || d.T() != 4 {
					t.Fatalf("rollback left prevNZ=%v t=%d, want nil and 4", d.prevNZ, d.T())
				}
				d.opt.Resilience.MaxDelta = maxDelta
			}
			if err := feed(x); err != nil {
				t.Fatalf("slice %d: %v", ti, err)
			}
			d.SetMaxIters(full)
			streamed := ti == 2 || ti == 3
			if got := d.LastEvalMode(); (got == perfmodel.EvalStreamed) != streamed {
				t.Fatalf("slice %d: eval mode %v", ti, got)
			}
			if (d.prevNZ == nil) != streamed {
				t.Fatalf("slice %d: prevNZ nil is %v, streamed is %v", ti, d.prevNZ == nil, streamed)
			}
		}
		return d
	}
	if diff := relFactorDiff(run(false), run(true)); diff > 1e-10 {
		t.Fatalf("incremental C_z differs from DirectCz by %g after streamed slices", diff)
	}
}

// TestStreamedSliceClearsKernelDiagnostics: a streamed slice runs no
// compiled plan, so KernelSchedule may not keep naming the resident slice
// before it.
func TestStreamedSliceClearsKernelDiagnostics(t *testing.T) {
	s := remapStream(t, 23, 2)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: Optimized, Seed: 2, MemBudget: perfmodel.ResidentBytes(1000, 3)})
	if err != nil {
		t.Fatal(err)
	}
	over := testStream(t, 24, s.Dims, 3000, 1).Slices[0]
	for ti, x := range []*sptensor.Tensor{s.Slices[0], s.Slices[1], over} {
		src, err := sptensor.SplitBlocks(x, 200)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ProcessBlockSlice(src); err != nil {
			t.Fatal(err)
		}
		schedule := string(d.KernelSchedule(nil))
		remapped, _ := d.LastLayoutDecision()
		if ti < 2 {
			if d.LastEvalMode() != perfmodel.EvalInMemory || len(schedule) != len(s.Dims) || remapped {
				t.Fatalf("slice %d: eval %v, schedule %q, remapped %v; want an in-memory slice run in place", ti, d.LastEvalMode(), schedule, remapped)
			}
		} else if d.LastEvalMode() != perfmodel.EvalStreamed || schedule != "" {
			t.Fatalf("streamed slice: eval %v, schedule %q; want streamed, empty", d.LastEvalMode(), schedule)
		}
	}
}

// TestSliceDriverStreamedAndResident feeds one stream through the three
// ways into the slice driver — ProcessSlice, ProcessBlockSlice under the
// budget (materialized) and over it (streamed) — and checks they are one
// driver: the fault hook sees the same (stage, slice, iter, attempt)
// sequence, the explicit body lands on the same bits whatever the entry,
// and the commit hook fires once per committed slice and never for a
// slice lost to an injected StageIterate error or to a panic inside the
// streamed kernel, both of which leave the state bit for bit where it
// was. MaxIters with a Tol no δ step reaches pins the iteration count,
// so the spCP-stream config (whose streamed entry runs the explicit
// body) must still report the same sequence.
func TestSliceDriverStreamedAndResident(t *testing.T) {
	dims := []int{40, 30, 50}
	stream := testStream(t, 29, dims, 1500, 4)
	const resident, materialized, streamed = 0, 1, 2
	explicit := Options{Algorithm: Optimized}
	nonneg := explicit
	nonneg.Constraint = admm.NonNeg{}
	configs := []struct {
		name string
		opt  Options
	}{{"plan", explicit}, {"nonneg", nonneg}, {"spcp", Options{Algorithm: SpCPStream}}}
	type outcome struct {
		faults    []resilience.Fault
		committed []SliceResult
		d         *Decomposer
	}
	for _, cfg := range configs {
		for _, workers := range []int{1, 4} {
			run := func(entry int) outcome {
				var out outcome
				failIter := false
				opt := cfg.opt
				opt.Rank, opt.Seed, opt.Workers, opt.TrackFit = 5, 9, workers, true
				opt.MaxIters, opt.Tol = 3, 1e-300
				if entry != resident {
					opt.MemBudget = 1 << 30
				}
				if entry == streamed {
					opt.MemBudget = 1
				}
				opt.Resilience = &resilience.Config{
					Policy: resilience.SkipSlice,
					FaultHook: func(f resilience.Fault) error {
						out.faults = append(out.faults, f)
						if failIter && f.Stage == resilience.StageIterate && f.Iter == 2 {
							return errors.New("injected")
						}
						return nil
					},
				}
				d, err := NewDecomposer(dims, opt)
				if err != nil {
					t.Fatal(err)
				}
				out.d = d
				d.SetCommitHook(func(res SliceResult) { out.committed = append(out.committed, res) })
				feed := func(x *sptensor.Tensor, wrap func(sptensor.BlockSource) sptensor.BlockSource) error {
					if entry == resident {
						_, err := d.ProcessSlice(x)
						return err
					}
					src, err := sptensor.SplitBlocks(x, 400)
					if err != nil {
						t.Fatal(err)
					}
					_, err = d.ProcessBlockSlice(wrap(src))
					return err
				}
				plain := func(src sptensor.BlockSource) sptensor.BlockSource { return src }
				// lost feeds a slice that must fail and checks nothing moved.
				lost := func(what string, x *sptensor.Tensor, wrap func(sptensor.BlockSource) sptensor.BlockSource) {
					var before []*dense.Matrix
					for n := range dims {
						before = append(before, d.Factor(n).Clone())
					}
					commits, at := len(out.committed), d.T()
					if err := feed(x, wrap); !errors.Is(err, resilience.ErrSliceSkipped) {
						t.Fatalf("%s workers=%d entry=%d: %s gave %v, want a skipped slice", cfg.name, workers, entry, what, err)
					}
					if len(out.committed) != commits || d.T() != at {
						t.Fatalf("%s workers=%d entry=%d: %s committed (hook fired %d times, t=%d)", cfg.name, workers, entry, what, len(out.committed)-commits, d.T())
					}
					for n := range dims {
						sameMatrixBits(t, fmt.Sprintf("%s workers=%d entry=%d: factor %d after %s", cfg.name, workers, entry, n, what), d.Factor(n), before[n])
					}
				}
				for ti, x := range stream.Slices {
					if ti == 2 {
						failIter = true
						lost("injected iterate error", x, plain)
						failIter = false
					}
					if ti == 3 && entry == streamed {
						// Outside the compared fault sequence: only this entry
						// has a streamed kernel to panic in.
						seen := len(out.faults)
						lost("streamed kernel panic", x, func(src sptensor.BlockSource) sptensor.BlockSource {
							return &flakySource{BlockSource: src, bad: 1, good: 3, panics: true}
						})
						if d.ResilienceStats().PanicsRecovered == 0 {
							t.Fatalf("%s workers=%d: the slice was not lost to a recovered panic", cfg.name, workers)
						}
						out.faults = out.faults[:seen]
					}
					if err := feed(x, plain); err != nil {
						t.Fatalf("%s workers=%d entry=%d slice %d: %v", cfg.name, workers, entry, ti, err)
					}
				}
				return out
			}
			ref := run(resident)
			for ti, res := range ref.committed {
				if res.T != ti {
					t.Fatalf("%s workers=%d: commit %d is slice %d", cfg.name, workers, ti, res.T)
				}
			}
			for entry := materialized; entry <= streamed; entry++ {
				got := run(entry)
				label := fmt.Sprintf("%s workers=%d entry=%d", cfg.name, workers, entry)
				if !slices.Equal(got.faults, ref.faults) {
					t.Fatalf("%s: fault sequence differs from ProcessSlice's\n got %v\nwant %v", label, got.faults, ref.faults)
				}
				if len(got.committed) != len(stream.Slices) {
					t.Fatalf("%s: commit hook fired %d times for %d slices", label, len(got.committed), len(stream.Slices))
				}
				if cfg.opt.Algorithm == SpCPStream && entry == streamed {
					continue // the explicit body, not the Gram-form one: same model, other bits
				}
				for ti, res := range got.committed {
					want := ref.committed[ti]
					if res.T != want.T || res.Iters != want.Iters || res.ADMMIters != want.ADMMIters ||
						math.Float64bits(res.Delta) != math.Float64bits(want.Delta) || math.Float64bits(res.Fit) != math.Float64bits(want.Fit) {
						t.Fatalf("%s slice %d: result %+v, want %+v", label, ti, res, want)
					}
				}
				for n := range dims {
					sameMatrixBits(t, fmt.Sprintf("%s factor %d", label, n), got.d.Factor(n), ref.d.Factor(n))
				}
				sameMatrixBits(t, label+" temporal Gram", got.d.TemporalGram(), ref.d.TemporalGram())
				if !slices.Equal(got.d.LastS(), ref.d.LastS()) {
					t.Fatalf("%s: sₜ differs", label)
				}
			}
		}
	}
}
