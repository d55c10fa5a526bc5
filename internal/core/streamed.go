package core

import (
	"context"
	"fmt"
	"slices"

	"spstream/internal/mttkrp"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
)

// Out-of-core slice evaluation. A slice arriving as a sptensor.BlockSource
// (an .spblk reader, or any block iterator) is first sized against
// Options.MemBudget by perfmodel.SelectEval: under it the blocks are
// materialized and the slice runs as if it had come through
// ProcessSliceContext; over it the source itself is the slice driver's
// input, and the one kernel (kernels.go) is compiled over its blocks,
// keeping resident the factor matrices, one decoded block per worker and
// as many (mode, block) pairs as the budget has room for (kernelShare),
// never more for a larger slice. A streamed slice runs the slice body
// with an empty z set under either algorithm — its nz sets would take a
// remap of the source — and, the kernel's result not depending on where
// a pair lives, produces bit-identical factors, temporal weights, and
// fit to the in-memory Optimized run, constrained or not.

// LastEvalMode reports where the most recent ProcessBlockSlice ran
// (in-memory after materialization, or streamed out of core). Slices
// fed through ProcessSlice do not update it.
func (d *Decomposer) LastEvalMode() perfmodel.EvalMode { return d.lastEval }

// LastResidency reports how much of the most recent slice the kernel
// kept resident between passes: all of a resident slice, and of a
// streamed one what the share of Options.MemBudget it was given (see
// kernelShare) holds.
func (d *Decomposer) LastResidency() mttkrp.Residency { return d.kernel.Residency() }

// kernelShare is what of Options.MemBudget a streamed slice's kernel may
// hold: the budget less the I×K matrices a streamed slice keeps, each
// counted once per mode — the committed and the spare factor version
// (the rollback point of a guarded slice is the committed one) and Ψ —
// and, under a constraint, ADMM's U, Ã and A₀ for the longest mode and
// the last mode's raw M.
func kernelShare(opt Options, dims []int) int64 {
	rows := 0
	for _, dim := range dims {
		rows += 3 * dim
	}
	if opt.Constraint != nil {
		rows += 3*slices.Max(dims) + dims[len(dims)-1]
	}
	return opt.MemBudget - int64(8*opt.Rank*rows)
}

// ProcessBlockSlice advances the factorization by one time slice
// delivered as blocks. It is ProcessBlockSliceContext with a background
// context.
func (d *Decomposer) ProcessBlockSlice(src sptensor.BlockSource) (SliceResult, error) {
	return d.ProcessBlockSliceContext(context.Background(), src)
}

// ProcessBlockSliceContext advances the factorization by one time slice
// delivered as a block source, choosing between materializing it and
// streaming it out of core according to Options.MemBudget. Context
// semantics, the resilience policy, and the commit hook behave exactly
// as in ProcessSliceContext: both are the one slice driver.
func (d *Decomposer) ProcessBlockSliceContext(ctx context.Context, src sptensor.BlockSource) (SliceResult, error) {
	return d.processSlice(ctx, sliceData{src: src})
}

// stageBlocks decides where a (shape-checked) block slice is evaluated
// and returns the driver's input: the source itself when it streams,
// its materialized concatenation when it fits the budget.
func (d *Decomposer) stageBlocks(src sptensor.BlockSource) (sliceData, error) {
	d.lastEval = perfmodel.SelectEval(src.NNZ(), d.n, d.opt.MemBudget)
	if d.lastEval == perfmodel.EvalStreamed {
		return sliceData{src: src}, nil
	}
	x, err := sptensor.MaterializeBlocks(src)
	if err != nil {
		return sliceData{}, fmt.Errorf("core: materializing block slice: %w", err)
	}
	return sliceData{x: x}, nil
}
