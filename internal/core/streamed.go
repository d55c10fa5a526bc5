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
// Options.MemBudget by perfmodel.SelectEval:
//
//   - EvalInMemory: the blocks are materialized into one tensor and the
//     slice runs as if it had come through ProcessSliceContext.
//   - EvalStreamed: the slice never materializes. The source itself is
//     the slice driver's input, and every pass over the sparse data — one
//     factor-mode MTTKRP per mode per inner iteration, the first of them
//     computed by the warm start — streams over the blocks (mttkrpMode
//     in kernels.go), so the resident set is the factor matrices, one
//     decoded block per worker and what else of the slice the budget has
//     room for (streamKernel below), never more for a larger slice. Every
//     sₜ and the fit's ⟨X, X̂⟩ come from a factor mode's MTTKRP and ‖X‖²
//     from the schedule compile, not a decode.
//
// A streamed slice runs the slice body with an empty z set under either
// algorithm — its nz sets would take a remap of the source — and the
// optimized kernels: mttkrp.StreamKernel is bit-identical to the
// compiled coordinate plan (mttkrp.PlanMTTKRP) on the block
// concatenation — and everything between the kernels is the same code —
// so a streamed slice produces
// bit-identical factors, temporal weights, and fit to the in-memory
// Optimized run. Constrained problems are supported — ADMM consumes the
// full Ψ⁽ⁿ⁾, staged per mode just like the in-memory path.

// LastEvalMode reports where the most recent ProcessBlockSlice ran
// (in-memory after materialization, or streamed out of core). Slices
// fed through ProcessSlice do not update it.
func (d *Decomposer) LastEvalMode() perfmodel.EvalMode { return d.lastEval }

// LastResidency reports how much of the most recent streamed slice the
// kernel kept decoded and sorted between passes, out of what share of
// Options.MemBudget — zero before the first streamed slice.
func (d *Decomposer) LastResidency() mttkrp.Residency {
	if d.sk == nil {
		return mttkrp.Residency{}
	}
	return d.sk.Residency()
}

// streamKernel lazily creates the pooled streaming kernel. It shares
// the Decomposer's mttkrp.Computer, so worker count and scratch follow
// the same configuration as the in-memory kernels, and may hold what
// Options.MemBudget leaves after the I×K matrices a streamed slice
// keeps, each counted once per mode: the committed and the spare factor
// version — the rollback point of a guarded slice is the committed one —
// and Ψ, and, under a constraint, ADMM's U, Ã and A₀ for the longest
// mode and the last mode's raw M.
func (d *Decomposer) streamKernel() *mttkrp.StreamKernel {
	if d.sk == nil {
		rows := 0
		for _, dim := range d.dims {
			rows += 3 * dim
		}
		if d.opt.Constraint != nil {
			rows += 3*slices.Max(d.dims) + d.dims[d.n-1]
		}
		d.sk = mttkrp.NewStreamKernel(d.mt)
		d.sk.SetShare(d.opt.MemBudget - int64(8*d.k*rows))
	}
	return d.sk
}

// scanBlockInput is the guarded path's input scan for block sources:
// every block must decode, validate, and carry finite values, and the
// per-block counts must add up to the advertised total.
func scanBlockInput(src sptensor.BlockSource) error {
	total := 0
	for b := 0; b < src.Blocks(); b++ {
		blk, err := src.Block(b)
		if err != nil {
			return err
		}
		if err := scanSliceInput(blk); err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
		total += blk.NNZ()
	}
	if total != src.NNZ() {
		return fmt.Errorf("sptensor: block source reports %d nonzeros, blocks hold %d", src.NNZ(), total)
	}
	return nil
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
