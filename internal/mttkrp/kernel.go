package mttkrp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// Kernel is the runtime's one factor-mode MTTKRP, over a
// sptensor.BlockSource, for resident and streamed slices alike. Begin
// compiles it in one pass over the blocks: ‖X‖², and per mode the exact
// row histogram, from which each worker gets a contiguous range of
// output rows (nonzero-balanced, snapped to block edges) and the
// ascending list of blocks that reach into it. Each output row so has
// one writer and receives its contributions in (block order, entry
// order): Sequential's sum over the concatenation of the blocks, bit for
// bit, at any worker count and any residency.
//
// What stays resident between passes is, per (mode, block) pair, the
// block's entries stably sorted into that mode's row order — values, the
// other modes' coordinates, one segment per row — read front to back by
// rowRun.addRange. Pairs are kept mode-major for as long as the share
// (SetShare) holds them beside a decode buffer and a sort scratch of the
// largest block per worker. A pair that is not resident is decoded on
// every pass of its mode, and each worker counting-sorts the entries of
// its rows for rowRun.add. Compile runs a resident tensor as a one-block
// source with no share limit: every pair resident — the in-memory
// row-order copy of each mode — and no decode after the compile.
//
// The kernel holds what it was compiled for until End (or a failed
// pass); a source must not change while it is held. All buffers are
// kernel-owned and grow-only: Begin, Compile and MTTKRP are
// allocation-free once they have grown to the largest source.
type Kernel struct {
	c *Computer

	// What the last compile saw: the source (nil once dropped), Compile's
	// wrap of one tensor, each block's declared nonzero count, ‖X‖², the
	// first input check a block failed (ScanErr), the largest block, and
	// whether the source decodes into the caller's buffer (copies): every
	// source but a sptensor.MemBlocks, which serves its own storage.
	src     sptensor.BlockSource
	one     sptensor.MemBlocks
	blkNNZ  []int
	modes   []kernelMode
	norm2   float64
	scan    error
	largest int
	copies  bool

	// pairs[p] for p < kept is pair (p / Blocks(), p % Blocks())'s
	// row-order copy, carved out of two slabs whose capacities never sum
	// past the share.
	share  int64
	res    Residency
	pairs  []pair
	kept   int
	ints   []int32
	vals   []float64
	count  []int32 // compile scratch: one block's row histogram, zero between uses
	ws     []kernelWorker
	tensor bool

	// A pass's arguments, for the pool body.
	out        *dense.Matrix
	factors    []*dense.Matrix
	mode, rank int
}

// kernelMode is one output mode's schedule.
type kernelMode struct {
	// lo[b], hi[b]: the smallest and largest row block b holds (hi < lo
	// for an empty block).
	lo, hi []int32
	// Worker w owns rows [rows[w], rows[w+1]) and walks blocks
	// blks[blkPtr[w]:blkPtr[w+1]]; of a resident pair, blks[j] names
	// segments [segAt[j], segEnd[j]).
	rows, blkPtr, blks, segAt, segEnd []int32
	// The row histogram, then its prefix sums.
	cum []int64
}

// pair is a (mode, block) pair's row-order copy: x.Vals and x.Inds[v]
// for v ≠ mode (Inds[mode] is nil) hold the block's entries stably sorted
// by row, segment s being row rows[s], entries [ends[s−1], ends[s]).
type pair struct {
	x          sptensor.Tensor
	rows, ends []int32
}

// kernelWorker is the state one worker keeps to itself, and the first
// block that failed to decode in its part of the current pass.
type kernelWorker struct {
	buf         sptensor.BlockBuf
	count, perm []int32
	err         error
	errBlk      int
}

// snapShare bounds how far a balanced row boundary moves to a block
// edge: 1/snapShare of a worker's nonzero quota. A boundary a few rows
// inside a slab makes one worker decode and filter all of the slab's
// blocks for those few rows.
const snapShare = 8

// NewKernel creates a kernel on c's pool and scratch, with no share.
func NewKernel(c *Computer) *Kernel { return &Kernel{c: c} }

// SetShare gives Begin the bytes it may hold from the next call on,
// decode buffers and resident pairs together; zero or less streams every
// pair. Compile ignores it.
func (s *Kernel) SetShare(bytes int64) { s.share = bytes }

// Residency is what of a source stays resident between passes, in bytes,
// of the Total that all of its (mode, block) pairs would take.
type Residency struct{ Bytes, Total int64 }

// Share is the resident fraction, 0 when there is nothing to hold.
func (r Residency) Share() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.Total)
}

// Residency reports the decision of the most recent compile.
func (s *Kernel) Residency() Residency { return s.res }

// FromTensor reports whether the most recent compile was Compile's.
func (s *Kernel) FromTensor() bool { return s.tensor }

// ScanErr is the first input check a block failed in the most recent
// compile, worded as the guarded path's input scan words it: a block
// that does not decode, a coordinate out of range or a non-finite value
// (naming the block), or blocks that do not hold the source's count.
// Only a non-finite value leaves the compile itself standing.
func (s *Kernel) ScanErr() error { return s.scan }

// Holds reports whether the kernel is compiled for src. Identity is the
// interface value's; a dynamic type that cannot be compared is never
// held.
func (s *Kernel) Holds(src sptensor.BlockSource) bool {
	return src != nil && s.src != nil && reflect.TypeOf(src).Comparable() && s.src == src
}

// grow returns buf resized to n elements, reallocating only when its
// capacity falls short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Compile is Begin over x as a one-block source (the kernel's own,
// reused) with no share limit. A coordinate out of range panics, as
// indexing by it would; a non-finite value is only recorded (ScanErr).
func (s *Kernel) Compile(x *sptensor.Tensor) {
	s.End()
	s.one.Reset(x)
	if err := s.begin(&s.one, math.MaxInt64); err != nil {
		panic(err)
	}
}

// Begin compiles the kernel for src, decoding each block once on the
// caller: ‖X‖², the input checks (ScanErr), the schedule, and the
// resident pairs, sorted out of the same decode.
func (s *Kernel) Begin(src sptensor.BlockSource) error {
	s.End()
	return s.begin(src, s.share)
}

func (s *Kernel) begin(src sptensor.BlockSource, share int64) error {
	dims, nb := src.Dims(), src.Blocks()
	_, own := src.(*sptensor.MemBlocks)
	s.tensor, s.norm2, s.scan, s.copies = src == sptensor.BlockSource(&s.one), 0, nil, !own
	for len(s.ws) < s.c.Workers {
		s.ws = append(s.ws, kernelWorker{})
	}
	s.modes, s.blkNNZ = grow(s.modes, len(dims)), grow(s.blkNNZ, nb)
	total := 0
	s.largest = 0
	for b := range s.blkNNZ {
		s.blkNNZ[b] = src.BlockNNZ(b)
		total, s.largest = total+s.blkNNZ[b], max(s.largest, s.blkNNZ[b])
	}
	for m, d := range dims {
		sm := &s.modes[m]
		sm.lo, sm.hi, sm.cum = grow(sm.lo, nb), grow(sm.hi, nb), grow(sm.cum, d+1)
		clear(sm.cum)
	}
	s.count = grow(s.count, slices.Max(dims)+1)
	clear(s.count)
	s.place(share, dims)
	held, miscount := 0, total != src.NNZ()
	for b := 0; b < nb; b++ {
		blk, err := s.decode(src, b, 0)
		if err != nil {
			s.reject(err)
			return fmt.Errorf("mttkrp: block %d: %w", b, err)
		}
		held += blk.NNZ()
		if err := s.check(blk, b, dims); err != nil {
			return err
		}
		if blk.NNZ() != s.blkNNZ[b] {
			miscount = true
			continue
		}
		for m, col := range blk.Inds {
			sm := &s.modes[m]
			lo, hi := sm.lo[b], sm.hi[b]
			if hi < lo {
				continue
			}
			cnt := s.count[:hi-lo+2] // cnt[r+1] counts row lo+r
			for _, i := range col {
				cnt[i-lo+1]++
			}
			for r, c := range cnt[1:] {
				sm.cum[int(lo)+r+1] += int64(c)
			}
			if p := m*nb + b; p < s.kept {
				s.pairs[p].fill(blk, m, lo, cnt)
			}
			clear(cnt)
		}
	}
	if held != src.NNZ() {
		s.reject(fmt.Errorf("sptensor: block source reports %d nonzeros, blocks hold %d", src.NNZ(), held))
	}
	if miscount {
		return fmt.Errorf("mttkrp: block source declares %d nonzeros, its blocks %d, and they hold %d", src.NNZ(), total, held)
	}
	for m := range s.modes {
		s.schedule(m)
	}
	s.src = src
	return nil
}

// reject records err as the compile's input failure unless an earlier
// block's came first.
func (s *Kernel) reject(err error) {
	if s.scan == nil {
		s.scan = err
	}
}

// check is the input scan of block b, on the decode the compile makes
// anyway: the shape, each mode's row extent (into lo, hi) and, through
// ‖X‖² — summed entry by entry in block order, as Tensor.Norm2 sums the
// concatenation — whether every value is finite. Only a suspect block is
// scanned entry by entry (Tensor.ValidateFinite), for the failure's
// words. A bad shape or coordinate fails the compile: no pass could
// place it.
func (s *Kernel) check(blk *sptensor.Tensor, b int, dims []int) error {
	bad := len(blk.Inds) != len(dims)
	for m := 0; m < len(dims) && !bad; m++ {
		col := blk.Inds[m]
		lo, hi := int32(dims[m]), int32(-1)
		for _, i := range col {
			lo, hi = min(lo, i), max(hi, i)
		}
		s.modes[m].lo[b], s.modes[m].hi[b] = lo, hi
		bad = len(col) != len(blk.Vals) || len(col) > 0 && (lo < 0 || int(hi) >= dims[m])
	}
	for _, v := range blk.Vals {
		s.norm2 += v * v
	}
	if !bad && (s.scan != nil || !math.IsNaN(s.norm2) && !math.IsInf(s.norm2, 0)) {
		return nil
	}
	err := blk.ValidateFinite()
	if err != nil {
		s.reject(fmt.Errorf("block %d: %w", b, err))
	}
	if !bad {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("coordinates outside the source's dims %v", dims)
	}
	return fmt.Errorf("mttkrp: block %d: %w", b, err)
}

// place decides which pairs stay resident — mode-major, up to the first
// that the arena (the share less a decode buffer and a sort scratch of
// the largest block per worker) cannot hold, from the share, the worker
// count, the dims and the declared block sizes alone — and carves their
// storage out of the slabs. A pair takes its block's values and
// other-mode coordinates and a row and an end per segment, at most one
// segment per entry and per row.
func (s *Kernel) place(share int64, dims []int) {
	n, nb := len(dims), len(s.blkNNZ)
	arena := share - int64(s.c.Workers*s.largest)*int64(4*n+12)
	s.kept, s.res = 0, Residency{}
	ints, vals := 0, 0
	for p := 0; p < n*nb; p++ {
		nnz := s.blkNNZ[p%nb]
		pi := (n-1)*nnz + 2*min(nnz, dims[p/nb])
		bytes := 4*int64(pi) + 8*int64(nnz)
		if s.res.Total += bytes; s.kept == p && s.res.Bytes+bytes <= arena {
			s.kept, s.res.Bytes, ints, vals = p+1, s.res.Bytes+bytes, ints+pi, vals+nnz
		}
	}
	if cap(s.ints) < ints || cap(s.vals) < vals {
		// An eighth to spare, as far as the arena allows, so that
		// like-sized slices settle after one allocation.
		scale, need := int64(72), 4*int64(ints)+8*int64(vals)
		if arena < need/8*9 {
			scale = arena * 64 / need
		}
		s.ints, s.vals = make([]int32, int64(ints)*scale/64), make([]float64, int64(vals)*scale/64)
	}
	s.pairs = grow(s.pairs, s.kept)
	ints, vals = 0, 0
	for p := range s.pairs {
		m, nnz, pr := p/nb, s.blkNNZ[p%nb], &s.pairs[p]
		pr.x.Vals, vals = s.vals[vals:vals+nnz], vals+nnz
		pr.x.Inds = grow(pr.x.Inds, n)
		for v := range pr.x.Inds {
			pr.x.Inds[v] = nil
			if v != m {
				pr.x.Inds[v], ints = s.ints[ints:ints+nnz], ints+nnz
			}
		}
		segs := min(nnz, dims[m])
		pr.rows, pr.ends = s.ints[ints:ints:ints+segs], s.ints[ints+segs:ints+segs:ints+2*segs]
		ints += 2 * segs
	}
}

// fill copies blk into mode's row order by a stable counting sort over
// rows lo, lo+1, …, whose histogram cnt holds (cnt[r+1] for row lo+r,
// cnt[0] = 0).
func (pr *pair) fill(blk *sptensor.Tensor, mode int, lo int32, cnt []int32) {
	pr.rows, pr.ends = pr.rows[:0], pr.ends[:0]
	for r, c := range cnt[1:] {
		if cnt[r+1] += cnt[r]; c > 0 {
			pr.rows, pr.ends = append(pr.rows, lo+int32(r)), append(pr.ends, cnt[r+1])
		}
	}
	for e, i := range blk.Inds[mode] {
		d := cnt[i-lo]
		cnt[i-lo]++
		pr.x.Vals[d] = blk.Vals[e]
		for v, dst := range pr.x.Inds {
			if dst != nil {
				dst[d] = blk.Inds[v][e]
			}
		}
	}
}

// decode returns block b of src through worker w's buffer, sized for the
// largest block before its first use when the source decodes into it —
// not regrown block after block with every outgrown array left as
// garbage.
func (s *Kernel) decode(src sptensor.BlockSource, b, w int) (*sptensor.Tensor, error) {
	buf := &s.ws[w].buf
	if t := &buf.Tensor; s.copies && cap(t.Vals) < s.largest {
		t.Inds, t.Vals = make([][]int32, len(s.modes)), make([]float64, 0, s.largest)
		for m := range t.Inds {
			t.Inds[m] = make([]int32, 0, s.largest)
		}
	}
	return src.BlockInto(b, buf)
}

// schedule turns mode m's row histogram into its schedule: rows split
// over workers by cumulative nonzero count, each boundary moved to the
// nearest block edge within the snapShare slack, per worker the blocks
// whose extent reaches into its range, and of each resident pair among
// them the segments of the worker's rows.
func (s *Kernel) schedule(m int) {
	sm, nb := &s.modes[m], len(s.blkNNZ)
	cum := sm.cum
	for i := range cum[1:] {
		cum[i+1] += cum[i]
	}
	sm.rows = parallel.WeightedBoundaries(sm.rows, cum, s.c.Workers)
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
	sm.blkPtr, sm.blks, sm.segAt, sm.segEnd = sm.blkPtr[:0], sm.blks[:0], sm.segAt[:0], sm.segEnd[:0]
	for w := 0; w < active; w++ {
		sm.blkPtr = append(sm.blkPtr, int32(len(sm.blks)))
		for b, lo := range sm.lo {
			if max(lo, sm.rows[w]) > min(sm.hi[b], sm.rows[w+1]-1) {
				continue
			}
			at, end := 0, 0
			if p := m*nb + b; p < s.kept {
				at, _ = slices.BinarySearch(s.pairs[p].rows, sm.rows[w])
				end, _ = slices.BinarySearch(s.pairs[p].rows, sm.rows[w+1])
			}
			sm.blks, sm.segAt, sm.segEnd = append(sm.blks, int32(b)), append(sm.segAt, int32(at)), append(sm.segEnd, int32(end))
		}
	}
	sm.blkPtr = append(sm.blkPtr, int32(len(sm.blks)))
}

// End drops what the kernel was compiled for, so that a closed reader or
// a finished slice is not kept alive and nothing of it is served again.
// The buffers stay.
func (s *Kernel) End() {
	s.src = nil
	s.one.Reset(nil)
}

// MTTKRP computes out = MTTKRP(X, factors, mode) over what the kernel
// was compiled for: Sequential on the concatenation of its blocks, bit
// for bit. A pass that fails to decode reports the lowest failed block,
// whichever worker met it, and drops the source.
func (s *Kernel) MTTKRP(out *dense.Matrix, factors []*dense.Matrix, mode int) error {
	if s.src == nil {
		return errors.New("mttkrp: kernel holds no source")
	}
	k := checkArgs(out, s.src.Dims(), factors, mode)
	out.Zero()
	s.c.ensureScratch(k)
	s.out, s.factors, s.mode, s.rank = out, factors, mode, k
	active := len(s.modes[mode].rows) - 1
	defer func() {
		// However the pass ended: the caller's matrices are not pinned
		// between calls, and no decode error outlives its pass.
		s.out, s.factors = nil, nil
		for w := range s.ws {
			s.ws[w].err = nil
		}
	}()
	s.c.pool.Do(active, active, s, kernelBody)
	var err error
	blk := 0
	for w := range s.ws[:active] {
		if ws := &s.ws[w]; ws.err != nil && (err == nil || ws.errBlk < blk) {
			err, blk = ws.err, ws.errBlk
		}
	}
	if err != nil {
		s.End()
		return fmt.Errorf("mttkrp: block %d: %w", blk, err)
	}
	return nil
}

// kernelBody is worker w's whole pass: its blocks in source order, and of
// each the entries of its rows, added row by row — a resident pair's
// segments in place, a decoded block's rows grouped by a stable counting
// sort over the part of the block's extent the worker owns.
func kernelBody(ctx any, _ int, wr parallel.Range) {
	s := ctx.(*Kernel)
	sm, nb := &s.modes[s.mode], len(s.blkNNZ)
	for w := wr.Lo; w < wr.Hi; w++ {
		ws, buf := &s.ws[w], s.c.scratch[w][:s.rank]
		for j := sm.blkPtr[w]; j < sm.blkPtr[w+1]; j++ {
			b := sm.blks[j]
			if p := s.mode*nb + int(b); p < s.kept {
				pr, start := &s.pairs[p], int32(0)
				if sm.segAt[j] > 0 {
					start = pr.ends[sm.segAt[j]-1]
				}
				run := newRowRun(&pr.x, s.factors, s.mode, buf)
				for seg := sm.segAt[j]; seg < sm.segEnd[j]; seg++ {
					run.addRange(s.out.Row(int(pr.rows[seg])), int(start), int(pr.ends[seg]))
					start = pr.ends[seg]
				}
				continue
			}
			x, err := s.decode(s.src, int(b), w)
			if err != nil {
				ws.err, ws.errBlk = err, int(b)
				break
			}
			col := x.Inds[s.mode]
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
			if cap(ws.perm) < s.largest { // the sort scratch the share counts
				ws.perm = make([]int32, s.largest)
			}
			for e, i := range col {
				if r := uint32(i - lo); r < uint32(width) {
					ws.perm[cnt[r]] = int32(e)
					cnt[r]++
				}
			}
			// The scatter left cnt[r] at the end of row lo+r's run.
			run, start := newRowRun(x, s.factors, s.mode, buf), int32(0)
			for r, end := range cnt[:width] {
				if end > start {
					run.add(s.out.Row(int(lo)+r), ws.perm[start:end])
				}
				start = end
			}
		}
	}
}

// Norm2 returns ‖X‖² of what the kernel was compiled for, summed by the
// compile: Tensor.Norm2 on the concatenation of the blocks.
func (s *Kernel) Norm2() float64 { return s.norm2 }
