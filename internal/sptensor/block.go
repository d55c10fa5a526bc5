package sptensor

import "fmt"

// BlockSource exposes a sparse tensor as an ordered sequence of
// coordinate blocks, each small enough to hold in memory while the
// whole tensor need not be. It is the seam between the out-of-core
// storage layer (internal/sptensor/ooc) and the blocked kernels: the
// CSF engine's block-incremental build and the streamed MTTKRP both
// consume one block at a time and depend only on the *concatenation
// order* of the blocks — the tensor a BlockSource represents is, by
// definition, block 0's nonzeros followed by block 1's, and so on.
//
// Block(b) is random access so consumers can make multiple passes
// (one per mode per iteration) and group blocks (the CSF slab build)
// without re-opening the source. Block decodes into a buffer the source
// owns, so the result is valid only until the next Block call and Block
// must not be called concurrently. BlockInto decodes into a buffer the
// caller owns: the result is valid until that buffer's next use, and
// calls with distinct buffers may run concurrently — the streamed
// kernels give every worker its own. Both allocate nothing once the
// buffer has grown to the largest block. Callers that need a block to
// outlive its buffer must copy.
type BlockSource interface {
	// Dims returns the mode lengths of the whole tensor.
	Dims() []int
	// NNZ returns the total nonzero count across all blocks.
	NNZ() int
	// Blocks returns the number of blocks.
	Blocks() int
	// BlockNNZ returns block b's nonzero count without decoding it.
	BlockNNZ(b int) int
	// Block decodes block b (0 ≤ b < Blocks) into the source's own
	// buffer; the next Block call invalidates the result.
	Block(b int) (*Tensor, error)
	// BlockInto decodes block b using buf as storage. Safe for
	// concurrent use with distinct buffers.
	BlockInto(b int, buf *BlockBuf) (*Tensor, error)
}

// BlockBuf is the grow-only storage one consumer of BlockInto owns: the
// decoded block and, for sources that cannot hand out their bytes in
// place, the raw section read from storage. The zero value is ready.
type BlockBuf struct {
	Tensor Tensor
	Raw    []byte
}

// MemBlocks adapts an in-memory list of block tensors to BlockSource.
// Tests and the fits-in-RAM bench configs use it to drive the blocked
// kernels without touching disk.
type MemBlocks struct {
	dims   []int
	blocks []*Tensor
	nnz    int
}

// NewMemBlocks wraps the given blocks. Every block must have the given
// dims; the concatenation order is the slice order.
func NewMemBlocks(dims []int, blocks []*Tensor) (*MemBlocks, error) {
	mb := &MemBlocks{dims: append([]int(nil), dims...), blocks: blocks}
	for i, b := range blocks {
		if b.NModes() != len(dims) {
			return nil, fmt.Errorf("sptensor: block %d has %d modes, want %d", i, b.NModes(), len(dims))
		}
		for m, d := range b.Dims {
			if d != dims[m] {
				return nil, fmt.Errorf("sptensor: block %d mode %d length %d, want %d", i, m, d, dims[m])
			}
		}
		mb.nnz += b.NNZ()
	}
	return mb, nil
}

// SplitBlocks partitions x into ⌈nnz/blockNNZ⌉ consecutive-run blocks
// of at most blockNNZ nonzeros each, preserving storage order. The
// blocks alias x's arrays (no copies); mutating x invalidates them.
func SplitBlocks(x *Tensor, blockNNZ int) (*MemBlocks, error) {
	if blockNNZ < 1 {
		return nil, fmt.Errorf("sptensor: SplitBlocks with block size %d", blockNNZ)
	}
	var blocks []*Tensor
	n := x.NNZ()
	for lo := 0; lo < n; lo += blockNNZ {
		hi := lo + blockNNZ
		if hi > n {
			hi = n
		}
		b := &Tensor{Dims: x.Dims, Inds: make([][]int32, x.NModes()), Vals: x.Vals[lo:hi]}
		for m := range b.Inds {
			b.Inds[m] = x.Inds[m][lo:hi]
		}
		blocks = append(blocks, b)
	}
	return NewMemBlocks(x.Dims, blocks)
}

func (mb *MemBlocks) Dims() []int { return mb.dims }

func (mb *MemBlocks) NNZ() int { return mb.nnz }

func (mb *MemBlocks) Blocks() int { return len(mb.blocks) }

func (mb *MemBlocks) BlockNNZ(b int) int { return mb.blocks[b].NNZ() }

func (mb *MemBlocks) Block(b int) (*Tensor, error) {
	if b < 0 || b >= len(mb.blocks) {
		return nil, fmt.Errorf("sptensor: block %d out of range [0,%d)", b, len(mb.blocks))
	}
	return mb.blocks[b], nil
}

// BlockInto returns the same view as Block: the blocks are already in
// memory and immutable, so buf stays unused.
func (mb *MemBlocks) BlockInto(b int, _ *BlockBuf) (*Tensor, error) { return mb.Block(b) }

// MaterializeBlocks concatenates every block of src into one in-memory
// tensor, in block order. This is the bridge back to the in-memory
// path: a decomposer whose memory budget admits the whole slice
// materializes it and runs the unblocked kernels, and the equivalence
// tests compare blocked kernels against the in-memory ones on the
// materialized twin.
func MaterializeBlocks(src BlockSource) (*Tensor, error) {
	out := New(src.Dims()...)
	out.Reserve(src.NNZ())
	nb := src.Blocks()
	for b := 0; b < nb; b++ {
		blk, err := src.Block(b)
		if err != nil {
			return nil, err
		}
		for m := range out.Inds {
			out.Inds[m] = append(out.Inds[m], blk.Inds[m]...)
		}
		out.Vals = append(out.Vals, blk.Vals...)
	}
	if out.NNZ() != src.NNZ() {
		return nil, fmt.Errorf("sptensor: block source declared %d nonzeros, blocks held %d", src.NNZ(), out.NNZ())
	}
	return out, nil
}
