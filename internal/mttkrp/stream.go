package mttkrp

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// StreamKernel evaluates the MTTKRP kernels over a sptensor.BlockSource
// without materializing it: every worker streams the blocks it needs
// through its own decode buffer, so with no share (the zero value) the
// resident set is one decoded block and its permutation per worker
// (plus the factor matrices and the output) and no part of a pass runs
// on the caller alone. The results are bit-identical to running the
// in-memory plan kernels on the materialized concatenation of the
// blocks, for any worker count: Begin gives each worker a contiguous
// range of output rows (nnz-balanced from the exact row histogram) and
// the ascending list of blocks whose rows reach into it. A worker walks
// that list in source order and, per block, stable-counting-sorts the
// entries whose row it owns, so each output row has exactly one writer
// and receives its contributions in (block order, entry order) — the
// plan kernel's per-row left-to-right sum. Which worker owns a row
// decides only who does the work, never a bit of the result.
//
// A slice's structure does not change between its passes, so what
// SetShare leaves after the workers' streaming buffers keeps it, in a
// fixed priority (plan): the row-sorted permutations of (mode, block)
// pairs, mode-major — 4 bytes per nonzero, written by each row owner on
// the mode's first pass, twice the saving per byte of a decoded block —
// then decoded copies of a prefix of the blocks, taken from the decode
// Begin performs anyway; only the remainder is decoded and sorted again
// each pass. Resident or not the same entries reach the same rowRun.add
// in the same order, so no bit depends on the share.
//
// The kernel holds the source it was compiled for until End (or an
// error), and recompiles when handed a different one; either drops what
// was resident, so nothing is served from a reader it no longer holds.
// A source must not change while the kernel holds it. All buffers are
// kernel-owned and grow-only: steady-state calls, Begin included, are
// allocation-free once they have grown to the largest source.
type StreamKernel struct {
	c *Computer

	// Schedule compiled by Begin for src.
	src    sptensor.BlockSource
	blkOff []int // global nonzero offset of block b; blkOff[Blocks()] is the total
	modes  []streamMode
	norm2  float64
	// The largest block's nonzero count, which a decode buffer holds
	// unless the source serves blocks from its own storage.
	largest int
	own     bool

	ws []streamWorker

	// The residency arena, two slabs (ints, vals) whose capacities never
	// sum past the share: the first permPairs (mode, block) pairs keep
	// their permutations in perm, mode m's from m·NNZ on in the order its
	// first pass claimed room (permTop); blocks [0, kept) lie in inds
	// (block-major, then by mode) and vals at their global offsets.
	share      int64
	res        Residency
	ints       []int32
	perm, inds []int32 // ints, split
	vals       []float64
	permPairs  int
	permTop    atomic.Int64
	kept       int

	// Dispatch arguments for the pool body (no closures).
	out     *dense.Matrix
	factors []*dense.Matrix
	mode    int
	k       int
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
	// perm[permAt[j]:permEnd[j]] is the resident permutation of blks[j],
	// valid once a whole pass has sorted the mode.
	permAt, permEnd []int
	sorted          bool
}

// streamWorker is the state one worker keeps to itself.
type streamWorker struct {
	buf   sptensor.BlockBuf
	view  sptensor.Tensor // of a resident block
	count []int32
	perm  []int32
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

// SetShare gives the kernel the bytes it may hold from the next Begin
// on, streaming buffers and arena; zero or less streams everything.
func (s *StreamKernel) SetShare(bytes int64) { s.share = bytes }

// Residency is what of a source stays resident between passes, in bytes,
// of the Total that all of it would take (permutations only when the
// source serves its own storage).
type Residency struct{ PermBytes, BlockBytes, Total int64 }

// Share is the resident fraction, 0 when there is nothing to hold.
func (r Residency) Share() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.PermBytes+r.BlockBytes) / float64(r.Total)
}

// Residency reports the decision of the most recent Begin.
func (s *StreamKernel) Residency() Residency { return s.res }

// reset ends a pass, however it ended: the caller's matrices are not
// pinned between calls and no worker's decode error outlives the pass
// that met it.
func (s *StreamKernel) reset() {
	s.out, s.factors = nil, nil
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
// global nonzero offset of every block, ‖X‖² and, per mode, every
// block's observed row extent, the exact row histogram, and from it each
// worker's row range and block list; the blocks plan keeps are copied
// out of the same decode. MTTKRP and Norm2 call it themselves on a
// source they were not compiled for.
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
	total := 0
	s.largest = 0
	for b := 0; b < nb; b++ {
		n := src.BlockNNZ(b)
		s.blkOff[b], total, s.largest = total, total+n, max(s.largest, n)
	}
	s.blkOff[nb] = total
	if total != src.NNZ() {
		return fmt.Errorf("mttkrp: block source declared %d nonzeros, blocks declare %d", src.NNZ(), total)
	}
	for m, d := range dims {
		sm := &s.modes[m]
		sm.lo, sm.hi, sm.cum = grow(sm.lo, nb), grow(sm.hi, nb), grow(sm.cum, d+1)
		clear(sm.cum)
	}
	keep, permLen, arena := s.plan(len(dims))
	// Until block 0 shows otherwise the source decodes into the buffer.
	s.norm2, s.own = 0, false
	for b := 0; b < nb; b++ {
		blk, err := s.block(src, b, 0)
		if err != nil {
			return fmt.Errorf("mttkrp: block %d: %w", b, err)
		}
		if blk.NNZ() != s.blkOff[b+1]-s.blkOff[b] {
			return fmt.Errorf("mttkrp: block %d holds %d nonzeros, source declared %d", b, blk.NNZ(), s.blkOff[b+1]-s.blkOff[b])
		}
		for _, v := range blk.Vals {
			s.norm2 += v * v
		}
		for m := range s.modes {
			sm := &s.modes[m]
			lo, hi := int32(dims[m]), int32(-1)
			for _, i := range blk.Inds[m] {
				sm.cum[i+1]++
				lo, hi = min(lo, i), max(hi, i)
			}
			sm.lo[b], sm.hi[b] = lo, hi
		}
		// A block served from the source's own storage is resident as it
		// is: only one decoded into the buffer is worth a copy.
		if b == 0 {
			if s.own = blk != &s.ws[0].buf.Tensor; s.own {
				keep = 0
			}
			s.fit(arena, permLen, s.blkOff[keep], len(dims))
		}
		if b < keep {
			copy(s.vals[s.blkOff[b]:], blk.Vals)
			for m, col := range blk.Inds {
				copy(s.inds[len(dims)*s.blkOff[b]+m*len(col):], col)
			}
			s.kept = b + 1
		}
	}
	for m := range s.modes {
		s.modes[m].assign(s.c.Workers)
	}
	entry := int64(4*len(dims) + 8)
	s.res = Residency{PermBytes: 4 * int64(permLen), BlockBytes: entry * int64(s.blkOff[s.kept]), Total: 4 * int64(len(dims)*total)}
	if !s.own {
		s.res.Total += entry * int64(total)
	}
	s.src = src
	return nil
}

// plan decides what of the source stays resident, as a function of the
// share, the worker count, the mode count and the declared block sizes
// alone: of the arena — the share less a decode buffer and a sort
// scratch of the largest block per worker — the permutations of (mode,
// block) pairs in mode-major order up to the first that does not fit
// (permLen entries), then, once every pair has its own, decoded blocks
// in block order likewise (keep of them).
func (s *StreamKernel) plan(nModes int) (keep, permLen int, arena int64) {
	nb, entry := len(s.blkOff)-1, int64(4*nModes+8)
	arena = s.share - int64(s.c.Workers*s.largest)*(entry+4)
	left := arena
	for s.permPairs = 0; s.permPairs < nModes*nb; s.permPairs++ {
		bn := s.blkOff[s.permPairs%nb+1] - s.blkOff[s.permPairs%nb]
		if left -= 4 * int64(bn); left < 0 {
			break
		}
		permLen += bn
	}
	for ; left >= 0 && keep < nb; keep++ {
		if left -= entry * int64(s.blkOff[keep+1]-s.blkOff[keep]); left < 0 {
			break
		}
	}
	return keep, permLen, arena
}

// fit makes the slabs hold permLen permutation entries and nz resident
// nonzeros. Outgrown slabs are replaced by ones up to an eighth larger
// than needed, as far as the arena allows, so that a stream of like-sized
// slices settles after one allocation instead of leaving a slab behind
// as garbage slice after slice; a larger slab kept from an earlier
// source is given up when keeping it would overdraw the arena.
func (s *StreamKernel) fit(arena int64, permLen, nz, nModes int) {
	needI, needV := permLen+nModes*nz, nz
	if cap(s.ints) < needI || cap(s.vals) < needV {
		wantI, wantV := max(cap(s.ints), needI), max(cap(s.vals), needV)
		if int64(4*wantI+8*wantV) > arena {
			wantI, wantV = needI, needV
		}
		scale := min(arena*64/int64(4*wantI+8*wantV), 72)
		s.ints, s.vals = make([]int32, int64(wantI)*scale/64), make([]float64, int64(wantV)*scale/64)
	}
	s.perm, s.inds, s.vals = s.ints[:permLen], s.ints[permLen:needI], s.vals[:nz]
}

// block returns block b of src for worker w: a view of the resident
// copy, or a decode into the worker's buffer — sized once for the
// largest block, not regrown block after block with every outgrown array
// left as garbage.
func (s *StreamKernel) block(src sptensor.BlockSource, b, w int) (*sptensor.Tensor, error) {
	ws, nModes := &s.ws[w], len(s.modes)
	if b >= s.kept {
		if t := &ws.buf.Tensor; !s.own && cap(t.Vals) < s.largest {
			t.Inds, t.Vals = make([][]int32, nModes), make([]float64, 0, s.largest)
			for m := range t.Inds {
				t.Inds[m] = make([]int32, 0, s.largest)
			}
		}
		return src.BlockInto(b, &ws.buf)
	}
	t, at, n := &ws.view, s.blkOff[b], s.blkOff[b+1]-s.blkOff[b]
	t.Dims, t.Inds, t.Vals = src.Dims(), grow(t.Inds, nModes), s.vals[at:at+n]
	for m := range t.Inds {
		t.Inds[m] = s.inds[nModes*at+m*n:][:n]
	}
	return t, nil
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
	sm.permAt, sm.permEnd = grow(sm.permAt, len(sm.blks)), grow(sm.permEnd, len(sm.blks))
}

// End drops the source the kernel was compiled for and everything
// resident of it, so a closed reader is not kept alive between slices
// and nothing read from it is served again. The buffers stay.
func (s *StreamKernel) End() {
	s.src, s.kept = nil, 0
	for m := range s.modes {
		s.modes[m].sorted = false
	}
}

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
	s.permTop.Store(int64(mode * s.blkOff[len(s.blkOff)-1]))
	s.c.pool.Do(active, active, s, streamBody)
	err := s.firstErr(active)
	s.modes[mode].sorted = err == nil
	return err
}

// streamBody is worker w's whole MTTKRP pass: its blocks in source
// order, each resident or decoded into its own buffer, the entries of
// its rows grouped by a stable counting sort over the part of the
// block's extent it owns (cost O(block nnz + that height)) — into the
// arena on the mode's first pass and read back from there on later
// ones, when plan gave the pair room — and added row by row.
func streamBody(ctx any, _ int, wr parallel.Range) {
	s := ctx.(*StreamKernel)
	sm := &s.modes[s.mode]
	// Blocks below keepPerm keep their permutation in this mode.
	keepPerm := int32(s.permPairs - s.mode*(len(s.blkOff)-1))
	for w := wr.Lo; w < wr.Hi; w++ {
		ws := &s.ws[w]
		for j := sm.blkPtr[w]; j < sm.blkPtr[w+1]; j++ {
			b := sm.blks[j]
			x, err := s.block(s.src, int(b), w)
			if err != nil {
				ws.err, ws.errBlk = err, int(b)
				break
			}
			col := x.Inds[s.mode]
			var perm []int32
			if b < keepPerm && sm.sorted {
				perm = s.perm[sm.permAt[j]:sm.permEnd[j]]
			} else {
				lo := max(sm.lo[b], sm.rows[w])
				width := int(min(sm.hi[b], sm.rows[w+1]-1)-lo) + 1
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
				if n := int(cnt[width]); b < keepPerm {
					end := int(s.permTop.Add(int64(n)))
					sm.permAt[j], sm.permEnd[j] = end-n, end
					perm = s.perm[end-n : end]
				} else {
					ws.perm = grow(ws.perm, n)
					perm = ws.perm
				}
				for e, i := range col {
					if r := uint32(i - lo); r < uint32(width) {
						perm[cnt[r]] = int32(e)
						cnt[r]++
					}
				}
				// The scatter left cnt[r] at the end of row lo+r's run: flag
				// each run's first entry.
				start := int32(0)
				for _, end := range cnt[:width] {
					if end > start {
						perm[start] = ^perm[start]
					}
					start = end
				}
			}
			run := newRowRun(x, s.factors, s.mode, s.c.scratch[w][:s.k])
			for start := 0; start < len(perm); {
				first, end := ^perm[start], start+1
				for end < len(perm) && perm[end] >= 0 {
					end++
				}
				perm[start] = first
				run.add(s.out.Row(int(col[first])), perm[start:end])
				perm[start] = ^first
				start = end
			}
		}
	}
}

// Norm2 returns ‖X‖² of src, summed entry by entry in block order by the
// Begin that compiled it: sptensor.Tensor.Norm2 on the concatenation.
func (s *StreamKernel) Norm2(src sptensor.BlockSource) (float64, error) {
	err := s.compiled(src)
	return s.norm2, err
}
