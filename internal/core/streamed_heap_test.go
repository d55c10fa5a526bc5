//go:build !race

package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spstream/internal/perfmodel"
	"spstream/internal/sptensor/ooc"
	"spstream/internal/synth"
)

// TestOutOfCoreHeapFlat is the out-of-core memory gate (the flat-memory
// claim of arXiv 2201.12523): a streamed slice's heap stays within
// 1.25× of Options.MemBudget while the slice grows 100×.
//
// A uniform 1200×900×700 slice (seed 29) is generated at 1×, 10× and
// 100× of 50 000 nonzeros, written to .spblk files at the default block
// size, and the in-memory copy is dropped. Each file is opened cold and
// processed by a fresh decomposer (Optimized, rank 16, seed 9, 4
// iterations, Tol 0). The baseline is the post-GC HeapAlloc with the
// file open and no decomposer built, so factor state, kernel scratch
// and block buffers all count; the peak is the high-water of a 10 ms
// ReadMemStats sampler and one more read when the slice returns, with
// the decomposer still live.
//
//   - Gate: at 10× and 100× under a 16 MiB budget, the peak delta must
//     stay within 1.25× of the budget, and no run's peak may read 0 (a
//     sampler that saw nothing measures nothing).
//   - At 1×, budget 0 must evaluate in memory and budget 1 must stream.
//     The streamed/in-memory throughput ratio between them is logged,
//     advisory below 0.6×: the host's clock is not the test's business.
//
// The file is not built under -race: the gate measures heap, not races,
// the 100× run takes about 50 s there against 2 s without, and the
// streamed paths it drives race under the -run Stream tests.
func TestOutOfCoreHeapFlat(t *testing.T) {
	const (
		budget  = 16 << 20
		baseNNZ = 50_000
		rank    = 16
	)
	dims := []int{1200, 900, 700}
	dir := t.TempDir()
	paths := map[int]string{}
	for _, sc := range []int{1, 10, 100} {
		s, err := synth.Generate(synth.Config{
			Name: "oocflat",
			Dists: []synth.IndexDist{
				synth.Uniform{N: dims[0]}, synth.Uniform{N: dims[1]}, synth.Uniform{N: dims[2]},
			},
			T: 1, NNZPerSlice: baseNNZ * sc, Seed: 29,
		})
		if err != nil {
			t.Fatal(err)
		}
		paths[sc] = filepath.Join(dir, fmt.Sprintf("x%d.spblk", sc))
		if err := ooc.WriteTensor(paths[sc], s.Slices[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()

	runs := []*heapRun{
		{name: "ooc/x1/inmem", scale: 1, budget: 0, want: perfmodel.EvalInMemory, trials: 2},
		{name: "ooc/x1/stream", scale: 1, budget: 1, want: perfmodel.EvalStreamed, trials: 2},
		{name: "ooc/x10/stream", scale: 10, budget: budget, want: perfmodel.EvalStreamed, enforce: true, trials: 1},
		{name: "ooc/x100/stream", scale: 100, budget: budget, want: perfmodel.EvalStreamed, enforce: true, trials: 1},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "budget=%s ceiling=%s rank=%d iters=4 workers=%d\n",
		mib(budget), mib(budget+budget/4), rank, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&table, "%-16s %10s %-13s %12s %10s %12s %12s\n",
		"run", "nnz", "eval", "wall", "Mnnz/s", "live-heap", "peak-heap")
	for _, r := range runs {
		if err := r.measure(dims, rank, paths[r.scale]); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		eval := r.eval.String()
		if r.eval == perfmodel.EvalStreamed {
			eval = fmt.Sprintf("%s %.0f%%", eval, 100*r.resident)
		}
		fmt.Fprintf(&table, "%-16s %10d %-13s %12s %10.2f %12s %12s\n",
			r.name, r.nnz, eval, r.wall.Round(time.Millisecond),
			float64(r.nnz)/1e6/r.wall.Seconds(), mib(r.live), mib(r.peak))
	}
	t.Log("\n" + table.String())

	for _, r := range runs {
		if r.eval != r.want {
			t.Errorf("%s: evaluated %s, want %s (nnz=%d budget=%d)", r.name, r.eval, r.want, r.nnz, r.budget)
		}
		if r.peak == 0 {
			t.Errorf("%s: heap high-water reads 0: the sampler saw no allocation", r.name)
		}
		if ceiling := int64(budget + budget/4); r.enforce && r.peak > ceiling {
			t.Errorf("%s: heap high-water %s exceeds 1.25× budget (%s)", r.name, mib(r.peak), mib(ceiling))
		}
	}
	inmem, forced := runs[0], runs[1]
	ratio := inmem.wall.Seconds() / forced.wall.Seconds()
	t.Logf("flatness: peak heap %s at 10× → %s at 100×; streamed/in-memory throughput at 1×: %.2fx",
		mib(runs[2].peak), mib(runs[3].peak), ratio)
	if ratio < 0.6 {
		t.Logf("advisory: streamed throughput below 0.6× of in-memory on a slice that fits in memory")
	}
}

// heapRun is one measured decomposition of a block file: the minimum
// wall time over its trials, and the last trial's evaluation and heap.
type heapRun struct {
	name    string
	scale   int
	budget  int64
	want    perfmodel.EvalMode
	enforce bool
	trials  int

	nnz        int
	wall       time.Duration
	live, peak int64 // post-GC and sampled high-water HeapAlloc over the baseline
	eval       perfmodel.EvalMode
	resident   float64
}

func (r *heapRun) measure(dims []int, rank int, path string) error {
	r.wall = time.Duration(1<<62 - 1)
	for trial := 0; trial < r.trials; trial++ {
		br, err := ooc.Open(path)
		if err != nil {
			return err
		}
		r.nnz = br.NNZ()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		stop := heapSampler()

		start := time.Now()
		dec, err := NewDecomposer(dims, Options{
			Rank: rank, Algorithm: Optimized,
			Seed: 9, MaxIters: 4, Tol: 0, MemBudget: r.budget,
		})
		if err == nil {
			_, err = dec.ProcessBlockSlice(br)
		}
		wall := time.Since(start)
		high := stop()
		if err != nil {
			br.Close()
			return err
		}
		r.eval, r.resident = dec.LastEvalMode(), dec.LastResidency().Share()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.wall = min(r.wall, wall)
		r.live = heapDelta(ms.HeapAlloc, base)
		r.peak = heapDelta(high, base)
		br.Close()
	}
	return nil
}

// heapSampler polls HeapAlloc every 10 ms until the returned stop is
// called, which reads it once more and yields the high-water mark. The
// last read sees what is live when stop is called, so a run shorter than
// a tick still shows; a burst between two reads can hide. The post-GC
// live heap is the floor, the sampled peak the observable ceiling.
func heapSampler() (stop func() uint64) {
	var (
		high uint64
		done = make(chan struct{})
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				high = max(high, ms.HeapAlloc)
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return max(high, ms.HeapAlloc)
	}
}

func heapDelta(now, base uint64) int64 {
	if now <= base {
		return 0
	}
	return int64(now - base)
}

func mib(b int64) string { return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20)) }
