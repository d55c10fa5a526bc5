package mttkrp

import (
	"fmt"
	"reflect"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// StreamKernel evaluates the MTTKRP kernels over a sptensor.BlockSource
// without materializing it: every worker streams the blocks it needs
// through its own decode buffer, so the resident set is one decoded
// block and its permutation per worker (plus the factor matrices and
// the output) and no part of a pass runs on the caller alone. The
// results are bit-identical to running the in-memory plan kernels on
// the materialized concatenation of the blocks, for any worker count:
//
//   - MTTKRP: Begin gives each worker a contiguous range of output rows
//     (nnz-balanced from the exact row histogram) and the ascending list
//     of blocks whose rows reach into it. A worker walks that list in
//     source order and, per block, stable-counting-sorts the entries
//     whose row it owns, so each output row has exactly one writer and
//     receives its contributions in (block order, entry order) — the
//     plan kernel's per-row left-to-right sum. Which worker owns a row
//     decides only who does the work, never a bit of the result.
//   - TimeMode: the global nonzero range is partitioned with the same
//     parallel.WorkerRange boundaries DoReduceVecInto uses, each worker
//     decodes the blocks its range intersects and carries its rank-k
//     accumulator across them, and the accumulators merge into dst in
//     worker order — the reduction tree is identical to the in-memory
//     TimeMode on the materialized tensor.
//
// The kernel holds the source it was compiled for until End (or an
// error), and recompiles when MTTKRP or TimeMode is handed a different
// one. A source must not change while the kernel holds it. All buffers
// are kernel-owned and grow-only: steady-state calls, Begin included,
// are allocation-free once they have grown to the largest source.
type StreamKernel struct {
	c *Computer

	// Schedule compiled by Begin for src.
	src    sptensor.BlockSource
	blkOff []int // global nonzero offset of block b; blkOff[Blocks()] is the total
	modes  []streamMode

	ws []streamWorker

	// Dispatch arguments for the pool bodies (no closures).
	out     *dense.Matrix
	factors []*dense.Matrix
	dst     []float64
	mode    int
	k       int
	active  int
}

// streamMode is one output mode's row-ownership schedule.
type streamMode struct {
	// lo[b], hi[b] are the smallest and largest row block b holds in
	// this mode (hi < lo for an empty block).
	lo, hi []int32
	// Worker w owns output rows [rows[w], rows[w+1]) and walks blocks
	// blks[blkPtr[w]:blkPtr[w+1]], ascending.
	rows   []int32
	blkPtr []int32
	blks   []int32
	// Begin scratch: the cumulative row histogram, cum[i] nonzeros in
	// rows below i.
	cum []int64
}

// streamWorker is the state one worker keeps to itself.
type streamWorker struct {
	buf   sptensor.BlockBuf
	count []int32
	perm  []int32
	acc   []float64
	// First block that failed to decode in the current pass.
	err    error
	errBlk int
}

// snapShare bounds how far Begin moves a balanced row boundary to make
// it coincide with a block edge: at most 1/snapShare of a worker's
// nonzero quota. A boundary a few rows inside a slab makes one worker
// decode and filter all of the slab's blocks for those few rows.
const snapShare = 8

// NewStreamKernel creates a streamed kernel evaluator on top of c's
// worker pool and scratch arenas.
func NewStreamKernel(c *Computer) *StreamKernel {
	return &StreamKernel{c: c}
}

// reset ends a pass, however it ended: the caller's matrices are not
// pinned between calls and no worker's decode error outlives the pass
// that met it.
func (s *StreamKernel) reset() {
	s.out, s.factors, s.dst = nil, nil, nil
	for w := range s.ws {
		s.ws[w].err = nil
	}
}

// grow returns buf resized to n elements, reallocating only when its
// capacity falls short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Begin compiles the schedule for src in one pass over its blocks: the
// global nonzero offset of every block (TimeMode's partition) and, per
// mode, every block's observed row extent, the exact row histogram, and
// from it each worker's row range and block list. MTTKRP and TimeMode
// call it themselves on a source they were not compiled for.
func (s *StreamKernel) Begin(src sptensor.BlockSource) error {
	s.End()
	dims, nb := src.Dims(), src.Blocks()
	for len(s.ws) < s.c.Workers {
		s.ws = append(s.ws, streamWorker{})
	}
	if len(s.modes) != len(dims) {
		s.modes = make([]streamMode, len(dims))
	}
	s.blkOff = grow(s.blkOff, nb+1)
	for m, d := range dims {
		sm := &s.modes[m]
		sm.lo, sm.hi, sm.cum = grow(sm.lo, nb), grow(sm.hi, nb), grow(sm.cum, d+1)
		clear(sm.cum)
	}
	total := 0
	for b := 0; b < nb; b++ {
		blk, err := src.BlockInto(b, &s.ws[0].buf)
		if err != nil {
			return fmt.Errorf("mttkrp: block %d: %w", b, err)
		}
		s.blkOff[b] = total
		total += blk.NNZ()
		for m := range s.modes {
			sm := &s.modes[m]
			lo, hi := int32(dims[m]), int32(-1)
			for _, i := range blk.Inds[m] {
				sm.cum[i+1]++
				lo, hi = min(lo, i), max(hi, i)
			}
			sm.lo[b], sm.hi[b] = lo, hi
		}
	}
	s.blkOff[nb] = total
	if total != src.NNZ() {
		return fmt.Errorf("mttkrp: block source declared %d nonzeros, blocks held %d", src.NNZ(), total)
	}
	for m := range s.modes {
		s.modes[m].assign(s.c.Workers)
	}
	s.src = src
	return nil
}

// assign turns the mode's row histogram into the schedule: rows split
// over workers by cumulative nonzero count, each boundary moved to the
// nearest block edge within the snapShare slack, and per worker the
// blocks whose extent reaches into its range.
func (sm *streamMode) assign(workers int) {
	cum := sm.cum
	for i := range cum[1:] {
		cum[i+1] += cum[i]
	}
	sm.rows = parallel.WeightedBoundaries(sm.rows, cum, workers)
	active := len(sm.rows) - 1
	slack := cum[len(cum)-1] / int64(active*snapShare)
	for w := 1; w < active; w++ {
		at := cum[sm.rows[w]]
		best, bestD := sm.rows[w], slack+1
		for b, lo := range sm.lo {
			if sm.hi[b] < lo {
				continue
			}
			for _, edge := range [2]int32{lo, sm.hi[b] + 1} {
				if d := max(cum[edge]-at, at-cum[edge]); d < bestD {
					best, bestD = edge, d
				}
			}
		}
		sm.rows[w] = max(best, sm.rows[w-1])
	}
	sm.blkPtr, sm.blks = sm.blkPtr[:0], sm.blks[:0]
	for w := 0; w < active; w++ {
		sm.blkPtr = append(sm.blkPtr, int32(len(sm.blks)))
		for b, lo := range sm.lo {
			if max(lo, sm.rows[w]) <= min(sm.hi[b], sm.rows[w+1]-1) {
				sm.blks = append(sm.blks, int32(b))
			}
		}
	}
	sm.blkPtr = append(sm.blkPtr, int32(len(sm.blks)))
}

// End drops the source the kernel was compiled for, so a closed reader
// is not kept alive between slices. The buffers stay.
func (s *StreamKernel) End() { s.src = nil }

// compiled makes src the kernel's source. Identity is the interface
// value's; a dynamic type that cannot be compared is never the same
// source and recompiles on every call.
func (s *StreamKernel) compiled(src sptensor.BlockSource) error {
	if s.src != nil && reflect.TypeOf(src).Comparable() && s.src == src {
		return nil
	}
	return s.Begin(src)
}

// firstErr reports the pass's decode failure with the lowest block
// index, whichever worker met it, and drops the source so the next call
// starts from a fresh Begin.
func (s *StreamKernel) firstErr(active int) error {
	var err error
	blk := 0
	for w := range s.ws[:active] {
		ws := &s.ws[w]
		if ws.err != nil && (err == nil || ws.errBlk < blk) {
			err, blk = ws.err, ws.errBlk
		}
	}
	if err == nil {
		return nil
	}
	s.End()
	return fmt.Errorf("mttkrp: block %d: %w", blk, err)
}

// MTTKRP computes out = MTTKRP(src, factors, mode) streaming over the
// blocks of src. Bit-identical to PlanMTTKRP on MaterializeBlocks(src).
func (s *StreamKernel) MTTKRP(out *dense.Matrix, src sptensor.BlockSource, factors []*dense.Matrix, mode int) error {
	k := checkArgs(out, src.Dims(), factors, mode)
	out.Zero()
	if err := s.compiled(src); err != nil {
		return err
	}
	s.c.ensureScratch(k)
	s.out, s.factors, s.mode, s.k = out, factors, mode, k
	defer s.reset()
	active := len(s.modes[mode].rows) - 1
	s.c.pool.Do(active, active, s, streamBody)
	return s.firstErr(active)
}

// streamBody is worker w's whole MTTKRP pass: its blocks in source
// order, each decoded into its own buffer, the entries of its rows
// grouped by a stable counting sort over the part of the block's extent
// it owns (cost O(block nnz + that height)) and added row by row.
func streamBody(ctx any, _ int, wr parallel.Range) {
	s := ctx.(*StreamKernel)
	sm := &s.modes[s.mode]
	for w := wr.Lo; w < wr.Hi; w++ {
		ws := &s.ws[w]
		for _, b := range sm.blks[sm.blkPtr[w]:sm.blkPtr[w+1]] {
			x, err := s.src.BlockInto(int(b), &ws.buf)
			if err != nil {
				ws.err, ws.errBlk = err, int(b)
				break
			}
			lo := max(sm.lo[b], sm.rows[w])
			width := int(min(sm.hi[b], sm.rows[w+1]-1)-lo) + 1
			col := x.Inds[s.mode]
			ws.count = grow(ws.count, width+1)
			cnt := ws.count
			clear(cnt)
			// One unsigned compare keeps the rows in [lo, lo+width): every
			// entry when the block's extent lies inside the worker's range.
			for _, i := range col {
				if r := uint32(i - lo); r < uint32(width) {
					cnt[r+1]++
				}
			}
			for r := 0; r < width; r++ {
				cnt[r+1] += cnt[r]
			}
			ws.perm = grow(ws.perm, int(cnt[width]))
			perm := ws.perm
			for e, i := range col {
				if r := uint32(i - lo); r < uint32(width) {
					perm[cnt[r]] = int32(e)
					cnt[r]++
				}
			}
			// The scatter left cnt[r] at the end of row lo+r's run.
			run := newRowRun(x, s.factors, s.mode, s.c.scratch[w][:s.k])
			start := int32(0)
			for r, end := range cnt[:width] {
				if end > start {
					run.add(s.out.Row(int(lo)+r), perm[start:end])
				}
				start = end
			}
		}
	}
}

// TimeMode computes dst[k] = Σ_e val_e · ∏_v factors[v][i_v][k] over all
// blocks of src. Bit-identical to Computer.TimeMode on the materialized
// tensor for the same worker count.
func (s *StreamKernel) TimeMode(dst []float64, src sptensor.BlockSource, factors []*dense.Matrix) error {
	if len(factors) != len(src.Dims()) {
		panic("mttkrp: TimeMode factor count mismatch")
	}
	clear(dst)
	if err := s.compiled(src); err != nil {
		return err
	}
	total := s.blkOff[len(s.blkOff)-1]
	if total == 0 {
		return nil
	}
	k := len(dst)
	s.c.ensureScratch(k)
	active := parallel.ClampWorkers(s.c.Workers, total)
	s.factors, s.dst, s.k, s.active = factors, dst, k, active
	defer s.reset()
	s.c.pool.Do(active, active, s, streamTimeBody)
	if err := s.firstErr(active); err != nil {
		return err
	}
	if active > 1 {
		for w := range s.ws[:active] {
			for j, v := range s.ws[w].acc[:k] {
				dst[j] += v
			}
		}
	}
	return nil
}

// streamTimeBody is worker w's whole time-mode pass: the blocks its
// global nonzero range intersects, decoded into its own buffer, summed
// into one accumulator. With one worker dst is the accumulator, which
// mirrors DoReduceVecInto's single-worker path: no +0/−0 merge
// artifacts can differ.
func streamTimeBody(ctx any, _ int, wr parallel.Range) {
	s := ctx.(*StreamKernel)
	nb := len(s.blkOff) - 1
	for w := wr.Lo; w < wr.Hi; w++ {
		ws := &s.ws[w]
		acc := s.dst
		if s.active > 1 {
			ws.acc = grow(ws.acc, s.k)
			acc = ws.acc
			clear(acc)
		}
		g := parallel.WorkerRange(s.blkOff[nb], s.active, w)
		for b := 0; b < nb && s.blkOff[b] < g.Hi; b++ {
			base, end := s.blkOff[b], s.blkOff[b+1]
			if end <= g.Lo || end == base {
				continue
			}
			x, err := s.src.BlockInto(b, &ws.buf)
			if err != nil {
				ws.err, ws.errBlk = err, b
				break
			}
			timeRange(acc, s.c.scratch[w][:s.k], x, s.factors, max(g.Lo, base)-base, min(g.Hi, end)-base)
		}
	}
}
