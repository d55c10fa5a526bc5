package mttkrp

import (
	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// Plan is a per-slice compiled MTTKRP layout. For every mode it holds a
// permutation of the slice's nonzeros sorted (stably) by output row,
// CSR-style segment boundaries, and a static nnz-balanced assignment of
// whole segments to workers. Building it costs one counting sort per
// mode — O(nnz + dim) — paid once when the slice arrives; every inner
// ALS/ADMM iteration then runs a contention-free segmented reduction
// with no locks, no thread-local matrix copies, and no per-call sort.
//
// Because the counting sort is stable and each output row is written by
// exactly one worker, the per-row accumulation order equals the original
// entry order: PlanMTTKRP is bit-identical to Sequential for any worker
// count.
type Plan struct {
	x     *sptensor.Tensor
	modes []planMode
}

type planMode struct {
	// perm lists nonzero indices of x grouped by this mode's coordinate,
	// in ascending row order, original order within a row.
	perm []int32
	// rows[i] is the output row of segment i; segments are
	// [segPtr[i], segPtr[i+1]) index ranges into perm.
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
// worker count. The slice must not be mutated while the plan is in use.
func (c *Computer) NewPlan(x *sptensor.Tensor) *Plan {
	return c.NewPlanFor(x, nil)
}

// NewPlanFor compiles a plan for the modes of x with need[m] set (nil =
// all modes). A kernel selector that routes some modes to the CSF
// engine uses this to avoid paying the counting sort for modes whose
// layout would never be used; calling PlanMTTKRP on an uncompiled mode
// panics.
func (c *Computer) NewPlanFor(x *sptensor.Tensor, need []bool) *Plan {
	p := &Plan{x: x, modes: make([]planMode, x.NModes())}
	nnz := x.NNZ()
	for m := range p.modes {
		if need != nil && !need[m] {
			continue
		}
		p.modes[m] = buildPlanMode(x.Inds[m], x.Dims[m], nnz, c.Workers)
	}
	return p
}

// NNZ returns the nonzero count of the planned slice.
func (p *Plan) NNZ() int { return p.x.NNZ() }

// Tensor returns the slice the plan was compiled for.
func (p *Plan) Tensor() *sptensor.Tensor { return p.x }

// buildPlanMode groups nonzeros by their coordinate in col via a stable
// counting sort and statically partitions the resulting segments over
// workers so each worker owns a near-equal nonzero count.
func buildPlanMode(col []int32, dim, nnz, workers int) planMode {
	// Counting sort: histogram, exclusive prefix sum, stable scatter.
	count := make([]int32, dim+1)
	for _, i := range col {
		count[i+1]++
	}
	for i := 0; i < dim; i++ {
		count[i+1] += count[i]
	}
	offsets := make([]int32, dim)
	copy(offsets, count[:dim])
	pm := planMode{perm: make([]int32, nnz)}
	for e, i := range col {
		pm.perm[offsets[i]] = int32(e)
		offsets[i]++
	}
	// Segment boundaries: one segment per non-empty row.
	for i := 0; i < dim; i++ {
		if count[i+1] > count[i] {
			pm.rows = append(pm.rows, int32(i))
			pm.segPtr = append(pm.segPtr, count[i])
		}
	}
	pm.segPtr = append(pm.segPtr, int32(nnz))

	// Static worker→segment partition, balanced by nonzero count (segPtr
	// doubles as the cumulative weight array). Whole segments only — each
	// output row has a single writer.
	pm.workerSeg = parallel.WeightedBoundaries(nil, pm.segPtr, workers)
	pm.active = len(pm.workerSeg) - 1
	pm.built = true
	return pm
}

// PlanMTTKRP computes out = MTTKRP(plan.Tensor(), factors, mode) by
// segmented reduction over the compiled layout: each worker walks its
// statically assigned segments and adds each segment's nonzeros, in
// entry order, to its zeroed output row (rowRun: eight columns at a time
// in registers for three-way slices, stored once per panel). Zero
// allocations, zero synchronization on the output, and results
// bit-identical to Sequential regardless of worker count.
func (c *Computer) PlanMTTKRP(out *dense.Matrix, plan *Plan, factors []*dense.Matrix, mode int) {
	x := plan.x
	k := checkArgs(out, x.Dims, factors, mode)
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
	a.out, a.x, a.factors, a.pm, a.mode, a.k = out, x, factors, pm, mode, k
	c.pool.Do(pm.active, pm.active, a, planBody)
	a.reset()
}

func planBody(ctx any, w int, r parallel.Range) {
	a := ctx.(*kernelArgs)
	pm := a.pm
	run := newRowRun(a.x, a.factors, a.mode, a.c.scratch[w][:a.k])
	for widx := r.Lo; widx < r.Hi; widx++ {
		for seg := pm.workerSeg[widx]; seg < pm.workerSeg[widx+1]; seg++ {
			run.add(a.out.Row(int(pm.rows[seg])), pm.perm[pm.segPtr[seg]:pm.segPtr[seg+1]])
		}
	}
}
