package mttkrp

import (
	"fmt"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// StreamKernel evaluates the MTTKRP kernels over a sptensor.BlockSource
// one block at a time, so only the current block (plus the factor
// matrices and the output) is resident. The results are bit-identical to
// running the in-memory plan kernels on the materialized concatenation
// of the blocks, for any worker count:
//
//   - MTTKRP: blocks are processed in source order; within a block a
//     stable counting sort groups nonzeros by output row and whole row
//     segments are assigned to workers, so each output row has exactly
//     one writer per block and its contributions arrive in original
//     entry order. Direct row accumulation then reproduces the plan
//     kernel's per-row left-to-right sum exactly.
//   - TimeMode: the global nonzero range is partitioned with the same
//     parallel.WorkerRange boundaries DoReduceVecInto uses, each worker
//     carries its rank-k accumulator across blocks, and the accumulators
//     merge into dst in worker order — the reduction tree is identical
//     to the in-memory TimeMode on the materialized tensor.
//
// A StreamKernel owns reusable scratch; steady-state calls are
// allocation-free once the buffers have grown to the largest block.
type StreamKernel struct {
	c *Computer

	// Per-block counting-sort state (MTTKRP).
	count  []int32
	perm   []int32
	segPtr []int32
	wseg   []int32

	// Per-worker persistent accumulators and global boundaries (TimeMode).
	accs   [][]float64
	bounds []parallel.Range

	// Dispatch arguments for the pool bodies (no closures).
	out     *dense.Matrix
	x       *sptensor.Tensor
	factors []*dense.Matrix
	col     []int32
	dst     []float64
	mode    int
	k       int
	active  int
	base    int
}

// NewStreamKernel creates a streamed kernel evaluator on top of c's
// worker pool and scratch arenas.
func NewStreamKernel(c *Computer) *StreamKernel {
	return &StreamKernel{c: c}
}

func (s *StreamKernel) reset() {
	s.out, s.x, s.factors, s.col, s.dst = nil, nil, nil, nil, nil
}

func checkStreamArgs(out *dense.Matrix, dims []int, factors []*dense.Matrix, mode int) int {
	if len(factors) != len(dims) {
		panic(fmt.Sprintf("mttkrp: %d factors for %d modes", len(factors), len(dims)))
	}
	if mode < 0 || mode >= len(dims) {
		panic(fmt.Sprintf("mttkrp: mode %d out of range", mode))
	}
	k := factors[0].Cols
	for m, f := range factors {
		if f.Cols != k {
			panic("mttkrp: factor rank mismatch")
		}
		if f.Rows != dims[m] {
			panic(fmt.Sprintf("mttkrp: factor %d has %d rows for dim %d", m, f.Rows, dims[m]))
		}
	}
	if out != nil && (out.Rows != dims[mode] || out.Cols != k) {
		panic("mttkrp: output shape mismatch")
	}
	return k
}

// MTTKRP computes out = MTTKRP(src, factors, mode) streaming over the
// blocks of src. Bit-identical to PlanMTTKRP on MaterializeBlocks(src).
func (s *StreamKernel) MTTKRP(out *dense.Matrix, src sptensor.BlockSource, factors []*dense.Matrix, mode int) error {
	k := checkStreamArgs(out, src.Dims(), factors, mode)
	out.Zero()
	c := s.c
	c.ensureScratch(k)
	s.out, s.factors, s.mode, s.k = out, factors, mode, k
	defer s.reset()
	for b := 0; b < src.Blocks(); b++ {
		blk, err := src.Block(b)
		if err != nil {
			return fmt.Errorf("mttkrp: block %d: %w", b, err)
		}
		s.blockMTTKRP(blk)
	}
	return nil
}

// blockMTTKRP adds one block's contributions into s.out. The stable
// counting sort runs over the block's row extent (not the full mode
// length), so cost is O(block nnz + block height) per block.
func (s *StreamKernel) blockMTTKRP(x *sptensor.Tensor) {
	nnz := x.NNZ()
	if nnz == 0 {
		return
	}
	col := x.Inds[s.mode]
	lo, hi := col[0], col[0]
	for _, i := range col {
		if i < lo {
			lo = i
		}
		if i > hi {
			hi = i
		}
	}
	width := int(hi-lo) + 1
	if cap(s.count) < width+1 {
		s.count = make([]int32, width+1)
	}
	cnt := s.count[:width+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, i := range col {
		cnt[i-lo+1]++
	}
	for i := 0; i < width; i++ {
		cnt[i+1] += cnt[i]
	}
	// Segment boundaries (one per non-empty row) before the scatter
	// below repurposes cnt as running offsets.
	s.segPtr = s.segPtr[:0]
	for i := 0; i < width; i++ {
		if cnt[i+1] > cnt[i] {
			s.segPtr = append(s.segPtr, cnt[i])
		}
	}
	s.segPtr = append(s.segPtr, int32(nnz))
	if cap(s.perm) < nnz {
		s.perm = make([]int32, nnz)
	}
	perm := s.perm[:nnz]
	for e, i := range col {
		r := i - lo
		perm[cnt[r]] = int32(e)
		cnt[r]++
	}
	s.wseg = parallel.WeightedBoundaries(s.wseg, s.segPtr, s.c.Workers)
	s.active = len(s.wseg) - 1
	s.x, s.col = x, col
	s.c.pool.Do(s.active, s.active, s, streamBlockBody)
	s.x, s.col = nil, nil
}

func streamBlockBody(ctx any, w int, r parallel.Range) {
	s := ctx.(*StreamKernel)
	run := newRowRun(s.x, s.factors, s.mode, s.c.scratch[w][:s.k])
	for widx := r.Lo; widx < r.Hi; widx++ {
		for seg := s.wseg[widx]; seg < s.wseg[widx+1]; seg++ {
			perm := s.perm[s.segPtr[seg]:s.segPtr[seg+1]]
			run.add(s.out.Row(int(s.col[perm[0]])), perm)
		}
	}
}

// TimeMode computes dst[k] = Σ_e val_e · ∏_v factors[v][i_v][k] over all
// blocks of src. Bit-identical to Computer.TimeMode on the materialized
// tensor for the same worker count.
func (s *StreamKernel) TimeMode(dst []float64, src sptensor.BlockSource, factors []*dense.Matrix) error {
	dims := src.Dims()
	if len(factors) != len(dims) {
		panic("mttkrp: TimeMode factor count mismatch")
	}
	k := len(dst)
	for j := range dst {
		dst[j] = 0
	}
	total := src.NNZ()
	if total == 0 {
		return nil
	}
	c := s.c
	c.ensureScratch(k)
	active := parallel.ClampWorkers(c.Workers, total)
	if cap(s.bounds) < active {
		s.bounds = make([]parallel.Range, active)
	}
	s.bounds = s.bounds[:active]
	for w := 0; w < active; w++ {
		s.bounds[w] = parallel.WorkerRange(total, active, w)
	}
	if active > 1 {
		for len(s.accs) < active {
			s.accs = append(s.accs, nil)
		}
		for w := 0; w < active; w++ {
			if cap(s.accs[w]) < k {
				s.accs[w] = make([]float64, k)
			}
			acc := s.accs[w][:k]
			for j := range acc {
				acc[j] = 0
			}
		}
	}
	s.factors, s.dst, s.k, s.active = factors, dst, k, active
	defer s.reset()
	base := 0
	for b := 0; b < src.Blocks(); b++ {
		blk, err := src.Block(b)
		if err != nil {
			return fmt.Errorf("mttkrp: block %d: %w", b, err)
		}
		if blk.NNZ() == 0 {
			continue
		}
		s.x, s.base = blk, base
		if active == 1 {
			// Mirror DoReduceVecInto's single-worker fast path: dst is
			// the accumulator, so no +0/-0 merge artifacts can differ.
			timeRange(dst, c.scratch[0][:k], blk, factors, 0, blk.NNZ())
		} else {
			c.pool.Do(active, active, s, streamTimeBody)
		}
		base += blk.NNZ()
		s.x = nil
	}
	if active > 1 {
		for w := 0; w < active; w++ {
			for j, v := range s.accs[w][:k] {
				dst[j] += v
			}
		}
	}
	return nil
}

func streamTimeBody(ctx any, w int, r parallel.Range) {
	s := ctx.(*StreamKernel)
	for widx := r.Lo; widx < r.Hi; widx++ {
		// Intersect this worker's global range with the current block.
		glo, ghi := s.bounds[widx].Lo, s.bounds[widx].Hi
		blo, bhi := s.base, s.base+s.x.NNZ()
		if glo < blo {
			glo = blo
		}
		if ghi > bhi {
			ghi = bhi
		}
		if glo >= ghi {
			continue
		}
		timeRange(s.accs[widx][:s.k], s.c.scratch[w][:s.k], s.x, s.factors, glo-blo, ghi-blo)
	}
}
