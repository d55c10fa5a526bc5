package mttkrp

import (
	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// Plan is a per-slice compiled MTTKRP layout. For every mode it holds a
// copy of the slice's values and other-mode coordinates sorted (stably)
// by output row, CSR-style segment boundaries, and a static nnz-balanced
// assignment of whole segments to workers. Building it costs one
// counting sort per mode, whose scatter moves the values and coordinates
// — O(nnz + dim) — paid once when the slice arrives; every inner
// ALS/ADMM iteration then runs a contention-free segmented reduction
// that reads its index and value arrays front to back, with no locks and
// no per-call sort.
//
// Because the counting sort is stable and each output row is written by
// exactly one worker, the per-row accumulation order equals the original
// entry order: PlanMTTKRP is bit-identical to Sequential for any worker
// count. A Plan keeps no reference to the slice, and CompilePlan
// recompiles it in place into grow-only storage.
type Plan struct {
	dims  []int
	modes []planMode
	// Build scratch: the counting sort's histogram.
	count []int32
}

type planMode struct {
	// x is the slice in this mode's row order (ascending row, original
	// order within a row): Vals, and Inds[v] for every v ≠ mode, windows
	// of idx. Inds[mode] is nil — rows names a whole segment's row.
	x   sptensor.Tensor
	idx []int32
	// rows[i] is the output row of segment i; segments are
	// [segPtr[i], segPtr[i+1]) ranges of x.
	rows   []int32
	segPtr []int32
	// workerSeg[w]..workerSeg[w+1] are the segments assigned to worker
	// w of the active worker set; len(workerSeg) == active+1.
	workerSeg []int32
	// active is the worker count the segment assignment was built for.
	active int
	// built reports whether this mode's layout was compiled. NewPlanFor
	// skips modes the caller's kernel selection routed elsewhere.
	built bool
}

// NewPlan compiles a plan for every mode of x using the Computer's
// worker count.
func (c *Computer) NewPlan(x *sptensor.Tensor) *Plan {
	return c.NewPlanFor(x, nil)
}

// NewPlanFor compiles a plan for the modes of x with need[m] set (nil =
// all modes). A kernel selector that routes some modes to the CSF
// engine uses this to avoid paying the counting sort for modes whose
// layout would never be used; calling PlanMTTKRP on an uncompiled mode
// panics.
func (c *Computer) NewPlanFor(x *sptensor.Tensor, need []bool) *Plan {
	return c.CompilePlan(nil, x, need)
}

// CompilePlan is NewPlanFor into p's storage (a new Plan when p is nil),
// reallocating only what x outgrows, and returns p.
func (c *Computer) CompilePlan(p *Plan, x *sptensor.Tensor, need []bool) *Plan {
	if p == nil {
		p = &Plan{}
	}
	p.dims, p.modes = append(p.dims[:0], x.Dims...), grow(p.modes, x.NModes())
	for m := range p.modes {
		p.modes[m].built = false
		if need == nil || need[m] {
			p.compileMode(x, m, c.Workers)
		}
	}
	return p
}

// compileMode copies the nonzeros of x into mode's row order by a stable
// counting sort and statically partitions the resulting segments over
// workers so each worker owns a near-equal nonzero count.
func (p *Plan) compileMode(x *sptensor.Tensor, mode, workers int) {
	pm := &p.modes[mode]
	col, dim, nnz := x.Inds[mode], x.Dims[mode], x.NNZ()
	// Counting sort: histogram; prefix sum and one segment per non-empty
	// row; stable scatter of each entry's value and other-mode
	// coordinates to the next slot of its row, count[i] walking row i's
	// run.
	p.count = grow(p.count, dim+1)
	count := p.count
	clear(count)
	for _, i := range col {
		count[i+1]++
	}
	pm.rows, pm.segPtr = pm.rows[:0], pm.segPtr[:0]
	for i := 0; i < dim; i++ {
		if count[i+1] > 0 {
			pm.rows = append(pm.rows, int32(i))
			pm.segPtr = append(pm.segPtr, count[i])
		}
		count[i+1] += count[i]
	}
	pm.segPtr = append(pm.segPtr, int32(nnz))
	pm.x.Vals = grow(pm.x.Vals, nnz)
	pm.idx, pm.x.Inds = grow(pm.idx, nnz*(x.NModes()-1)), grow(pm.x.Inds, x.NModes())
	for v, idx := 0, pm.idx; v < x.NModes(); v++ {
		pm.x.Inds[v] = nil
		if v != mode {
			pm.x.Inds[v], idx = idx[:nnz], idx[nnz:]
		}
	}
	for e, i := range col {
		d := count[i]
		count[i]++
		pm.x.Vals[d] = x.Vals[e]
		for v, dst := range pm.x.Inds {
			if dst != nil {
				dst[d] = x.Inds[v][e]
			}
		}
	}

	// Static worker→segment partition, balanced by nonzero count (segPtr
	// doubles as the cumulative weight array). Whole segments only — each
	// output row has a single writer.
	pm.workerSeg = parallel.WeightedBoundaries(pm.workerSeg, pm.segPtr, workers)
	pm.active = len(pm.workerSeg) - 1
	pm.built = true
}

// PlanMTTKRP computes out = MTTKRP(x, factors, mode) for the slice x the
// plan was compiled from, by segmented reduction over the compiled
// layout: each worker walks its statically assigned segments and adds
// each segment's nonzeros, in entry order, to its zeroed output row
// (rowRun.addRange: eight columns at a time in registers for three-way
// slices, stored once per panel). Zero allocations, zero synchronization
// on the output, and results bit-identical to Sequential regardless of
// worker count.
func (c *Computer) PlanMTTKRP(out *dense.Matrix, plan *Plan, factors []*dense.Matrix, mode int) {
	k := checkArgs(out, plan.dims, factors, mode)
	out.Zero()
	pm := &plan.modes[mode]
	if !pm.built {
		panic("mttkrp: PlanMTTKRP on a mode the plan was not compiled for")
	}
	if len(pm.rows) == 0 {
		return
	}
	c.ensureScratch(k)
	a := &c.args
	a.out, a.factors, a.pm, a.mode, a.k = out, factors, pm, mode, k
	c.pool.Do(pm.active, pm.active, a, planBody)
	a.reset()
}

func planBody(ctx any, w int, r parallel.Range) {
	a := ctx.(*kernelArgs)
	pm := a.pm
	run := newRowRun(&pm.x, a.factors, a.mode, a.c.scratch[w][:a.k])
	for seg := pm.workerSeg[r.Lo]; seg < pm.workerSeg[r.Hi]; seg++ {
		run.addRange(a.out.Row(int(pm.rows[seg])), int(pm.segPtr[seg]), int(pm.segPtr[seg+1]))
	}
}
