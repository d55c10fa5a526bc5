package perfmodel

import (
	"math"

	"spstream/internal/csf"
	"spstream/internal/sptensor"
)

// This file is the runtime selector. Given a measured slice shape it
// predicts the per-mode cost of the two per-slice compiled MTTKRP
// kernels — the coordinate plan (mttkrp.Plan) and the tiled CSF engine
// (csf.Engine) — and picks the faster one (SelectMTTKRPEx). Unlike the
// paper-testbed model in the sim sub-package (which reproduces published
// scaling curves), the selector runs on whatever host the stream runs
// on, so its constants are calibrated against measured single-core
// kernel times (EXPERIMENTS.md, "CSF vs plan crossover") and it only
// needs the *ordering* of two predictions to be right, with conservative
// margins absorbing the residual model error.

// SelectorParams holds the host-generic per-operation costs (ns) of the
// two compiled kernels. Defaults were fit on a commodity x86-64 core
// against the measured kernel grid in BENCH_PR5.json (`make bench`) at
// ranks 16–32 and 2·10⁵–3·10⁵ nonzeros; see EXPERIMENTS.md.
type SelectorParams struct {
	// Plan kernel: cost per nonzero = PlanNsPerNnz + K·PlanNsPerRank
	// (the mode's row-sorted value and index copies read in order, two
	// factor-row gathers, 3-op row product). The same for every mode:
	// the copies make the last mode's read as sequential as the first's.
	PlanNsPerNnz  float64
	PlanNsPerRank float64
	// CSF kernel: every stored value costs CSFValNs + K·CSFLeafNsPerRank
	// (sequential value stream + leaf factor row); every internal node
	// at the levels above the leaves costs CSFNodeNs + K·CSFNodeNsPerRank
	// (one factor row gather + partial-product scale-add). Leaves carry
	// no node cost — their work is the per-value term.
	CSFValNs         float64
	CSFLeafNsPerRank float64
	CSFNodeNs        float64
	CSFNodeNsPerRank float64
	// Build costs per nonzero: the plan's counting sort per mode (whose
	// scatter moves the values and coordinates) vs the CSF engine's
	// N-pass radix sort + tree pass per tree. Amortized over the expected
	// inner iterations.
	PlanBuildNsPerNnz float64
	CSFBuildNsPerNnz  float64 // per nonzero per level of one tree
	// Sorted-slice build refinement: when the profile proves the slice
	// lexicographically sorted, the engine's sorted-base fast path
	// replaces the N radix passes with 0 (root = mode 0) or 1 (any
	// other root), so the build is CSFSortNsPerPass per remaining pass
	// plus the CSFTreeNsPerNnz node-emission pass. Used only by the
	// Ex variants; zero values fall back to the legacy N-pass formula.
	CSFSortNsPerPass float64
	CSFTreeNsPerNnz  float64
	// ColdFactor scales a kernel's factor-row gather terms when the
	// gathered matrices overflow CacheBytes: random gathers from a
	// matrix larger than the cache miss on nearly every row, which the
	// flat per-rank constants (fit on cache-resident grids) miss badly
	// on paper-§VI-scale skewed modes.
	ColdFactor float64
	// CacheBytes is the cache budget the kernel predictions compare
	// factor footprints against.
	CacheBytes int64
	// Margin < 1: CSF is selected only when its predicted time is below
	// Margin × the plan's prediction, so prediction noise near the
	// crossover resolves to the kernel whose worst case is milder.
	Margin float64
}

// DefaultSelectorParams returns the host-generic calibration.
func DefaultSelectorParams() SelectorParams {
	return SelectorParams{
		PlanNsPerNnz:      8,
		PlanNsPerRank:     3.4,
		CSFValNs:          5,
		CSFLeafNsPerRank:  2,
		CSFNodeNs:         10,
		CSFNodeNsPerRank:  1,
		PlanBuildNsPerNnz: 11,
		CSFBuildNsPerNnz:  28,
		CSFSortNsPerPass:  18,
		CSFTreeNsPerNnz:   30,
		ColdFactor:        1.6,
		CacheBytes:        8 << 20,
		Margin:            0.9,
	}
}

// MTTKRPKind is the selector's verdict for one mode.
type MTTKRPKind int

const (
	// MTTKRPPlan is the per-slice compiled coordinate plan (mttkrp.Plan).
	MTTKRPPlan MTTKRPKind = iota
	// MTTKRPCSF is the tiled CSF fiber-tree kernel (csf.Engine).
	MTTKRPCSF
)

// Selector predicts and compares the compiled MTTKRP kernels.
type Selector struct {
	P SelectorParams
	// Workers is the parallel width both kernels run at.
	Workers int
}

// NewSelector returns a selector for the given worker count with the
// default calibration.
func NewSelector(workers int) Selector {
	if workers < 1 {
		workers = 1
	}
	return Selector{P: DefaultSelectorParams(), Workers: workers}
}

// distinct returns the birthday-problem estimate of how many distinct
// values n uniform draws from a space of given size produce:
// space·(1 − e^(−n/space)), clamped to [1, n]. It is exact in
// expectation for uniform coordinates and a usable upper bound for
// skewed ones (skew only reduces distinct counts, making CSF cheaper
// than predicted — an error in the conservative direction for the
// plan, absorbed by Margin on the CSF side).
func distinct(space, n float64) float64 {
	if n <= 0 {
		return 0
	}
	if space <= 0 {
		return 1
	}
	d := space * (1 - math.Exp(-n/space))
	if d > n {
		d = n
	}
	if d < 1 {
		d = 1
	}
	return d
}

// coldScale returns ColdFactor when gathering rank-k rows from a
// dim-row matrix misses the cache budget (1 otherwise, and 1 when the
// cold refinement is not configured).
func (se Selector) coldScale(dim, k int) float64 {
	if se.P.ColdFactor <= 1 || se.P.CacheBytes <= 0 {
		return 1
	}
	if int64(dim)*int64(k)*8 > se.P.CacheBytes {
		return se.P.ColdFactor
	}
	return 1
}

// PlanModeTime predicts one plan-kernel MTTKRP (seconds, excluding
// build) for one mode of the profiled slice. The per-rank gather term
// is scaled by ColdFactor when the source factors (every mode but the
// output) overflow the cache budget.
func (se Selector) PlanModeTime(s SliceProfile, mode, k int) float64 {
	nnz := float64(s.NNZ)
	srcDim := 0
	for m := range s.Modes {
		if m != mode {
			srcDim += s.Modes[m].Dim
		}
	}
	rankNs := float64(k) * se.P.PlanNsPerRank * se.coldScale(srcDim, k)
	return nnz * (se.P.PlanNsPerNnz + rankNs) / float64(se.Workers) * 1e-9
}

// CSFModeTime predicts one CSF-engine MTTKRP (seconds, excluding build)
// for one mode: the tree is rooted at the mode with the remaining modes
// by increasing length (mirroring csf.ModeOrder), and the node count at
// each internal level below the root is the birthday estimate of
// distinct coordinate prefixes.
func (se Selector) CSFModeTime(s SliceProfile, mode, k int) float64 {
	return se.CSFModeTimeEx(s, mode, k, false)
}

// CSFModeTimeEx is CSFModeTime with the tree's level order chosen the
// way the engine will actually build it: sortedBase mirrors
// csf.ModeOrderBase (root first, remaining modes in storage order —
// the engine's reduced-pass layout for sorted slices), false mirrors
// csf.ModeOrder. When the first two levels are modes {0,1} and the
// profile carries a measured distinct-pair count, that count replaces
// the birthday estimate for the level-1 nodes; per-level gather terms
// are scaled by ColdFactor when the level's factor overflows the cache
// budget.
func (se Selector) CSFModeTimeEx(s SliceProfile, mode, k int, sortedBase bool) float64 {
	nnz := float64(s.NNZ)
	if nnz == 0 {
		return 0
	}
	n := len(s.Modes)
	order := make([]int, 0, n)
	if sortedBase {
		order = csf.ModeOrderBase(order, n, mode)
	} else {
		dims := make([]int, n)
		for m := range s.Modes {
			dims[m] = s.Modes[m].Dim
		}
		order = csf.ModeOrder(order, dims, mode)
	}
	// Every stored value pays the leaf term; internal nodes exist at
	// levels 1..n-2 (the roots are amortized into their subtrees, the
	// leaves are the values themselves). Level l's node count is the
	// birthday estimate of distinct (order[0..l]) coordinate prefixes —
	// replaced by the measured count where one is available — and the
	// prefix space is capped by the observed per-mode nz-row counts,
	// which are tighter than the full mode lengths on sparse slices.
	leafScale := (se.P.CSFValNs + float64(k)*se.P.CSFLeafNsPerRank) *
		se.coldScale(s.Modes[order[n-1]].Dim, k)
	cost := nnz * leafScale
	space := rowSpace(s.Modes[order[0]])
	for l := 1; l < n-1; l++ {
		space *= rowSpace(s.Modes[order[l]])
		nodes := distinct(space, nnz)
		if l == 1 && s.Pair01 > 0 && (order[0]|order[1]) == 1 && order[0] != order[1] {
			nodes = float64(s.Pair01)
		}
		nodeScale := (se.P.CSFNodeNs + float64(k)*se.P.CSFNodeNsPerRank) *
			se.coldScale(s.Modes[order[l]].Dim, k)
		cost += nodes * nodeScale
	}
	return cost / float64(se.Workers) * 1e-9
}

// rowSpace is the effective coordinate space of one mode: the observed
// distinct-row count when available, else the mode length.
func rowSpace(m ModeProfile) float64 {
	if m.NZRows > 0 {
		return float64(m.NZRows)
	}
	if m.Dim > 0 {
		return float64(m.Dim)
	}
	return 1
}

// PlanBuildTime and CSFBuildTime predict the per-slice compile cost of
// one mode's layout (seconds). The CSF build is serial per tree (radix
// sort passes); the plan build is one counting sort that scatters the
// values and coordinates into row order.
func (se Selector) PlanBuildTime(s SliceProfile) float64 {
	return float64(s.NNZ) * se.P.PlanBuildNsPerNnz * 1e-9
}

// CSFBuildTime predicts building one CSF tree for the slice.
func (se Selector) CSFBuildTime(s SliceProfile) float64 {
	return float64(s.NNZ) * float64(len(s.Modes)) * se.P.CSFBuildNsPerNnz * 1e-9
}

// CSFBuildTimeEx refines CSFBuildTime for a specific root mode when
// the slice is known sorted: the engine's sorted-base path needs no
// sort pass for a tree rooted at mode 0 and exactly one stable
// counting pass for any other root, plus the node-emission pass.
func (se Selector) CSFBuildTimeEx(s SliceProfile, mode int) float64 {
	if !s.Sorted || se.P.CSFSortNsPerPass == 0 {
		return se.CSFBuildTime(s)
	}
	passes := 1.0
	if mode == 0 {
		passes = 0
	}
	return float64(s.NNZ) * (passes*se.P.CSFSortNsPerPass + se.P.CSFTreeNsPerNnz) * 1e-9
}

// SelectMTTKRP chooses the kernel for one mode of the profiled slice:
// MTTKRPCSF when the CSF prediction — including its build amortized
// over amortIters inner iterations — beats the plan prediction by the
// conservative margin, else MTTKRPPlan. The choice is a pure function
// of (profile, mode, k, amortIters, params), never of runtime history,
// so checkpoint-restored runs reproduce the original kernel schedule
// bit-for-bit.
func (se Selector) SelectMTTKRP(s SliceProfile, mode, k, amortIters int) MTTKRPKind {
	return se.SelectMTTKRPEx(s, mode, k, amortIters, false)
}

// SelectMTTKRPEx is SelectMTTKRP with the sorted-base refinement:
// when sortedBase is set (the caller verified the slice is sorted and
// will hint the engine with csf.Engine.SetSortedBase), the CSF side is
// modeled with the base-order tree shape and the reduced-pass build
// cost. Still a pure function of its arguments.
func (se Selector) SelectMTTKRPEx(s SliceProfile, mode, k, amortIters int, sortedBase bool) MTTKRPKind {
	if amortIters < 1 {
		amortIters = 1
	}
	iters := float64(amortIters)
	plan := se.PlanModeTime(s, mode, k) + se.PlanBuildTime(s)/iters
	var csft float64
	if sortedBase {
		csft = se.CSFModeTimeEx(s, mode, k, true) + se.CSFBuildTimeEx(s, mode)/iters
	} else {
		csft = se.CSFModeTime(s, mode, k) + se.CSFBuildTime(s)/iters
	}
	if csft < se.P.Margin*plan {
		return MTTKRPCSF
	}
	return MTTKRPPlan
}

// ProfileInto measures a SliceProfile from x into p, reusing p's Modes
// slice and the counts scratch buffer (grown to the longest mode, then
// reused). It returns the scratch for the caller to keep. Unlike
// Profile it allocates nothing in steady state, so per-slice kernel
// selection stays off the allocator.
func ProfileInto(p *SliceProfile, x *sptensor.Tensor, counts []int32) []int32 {
	n := x.NModes()
	p.NNZ = x.NNZ()
	if cap(p.Modes) < n {
		p.Modes = make([]ModeProfile, n)
	}
	p.Modes = p.Modes[:n]
	for m := 0; m < n; m++ {
		dim := x.Dims[m]
		if cap(counts) < dim {
			counts = make([]int32, dim)
		}
		c := counts[:dim]
		for i := range c {
			c[i] = 0
		}
		for _, i := range x.Inds[m] {
			c[i]++
		}
		nzRows, maxPer := 0, int32(0)
		for _, v := range c {
			if v > 0 {
				nzRows++
			}
			if v > maxPer {
				maxPer = v
			}
		}
		top := 0.0
		if p.NNZ > 0 {
			top = float64(maxPer) / float64(p.NNZ)
		}
		p.Modes[m] = ModeProfile{Dim: dim, NZRows: nzRows, TopRowFrac: top}
	}
	return counts
}

// Profiler holds the counting scratch across slices, so the per-slice
// profile stays off the allocator.
type Profiler struct {
	counts []int32
}

// Profile measures x into p (reusing p's storage): ProfileInto plus the
// storage-order scan.
func (pf *Profiler) Profile(p *SliceProfile, x *sptensor.Tensor) {
	pf.counts = ProfileInto(p, x, pf.counts)
	p.Sorted, p.Pair01 = scanOrder(x)
}

// scanOrder reports whether x is sorted lexicographically by mode
// order (0,1,…,N−1) — the order sptensor.Coalesce leaves slices in —
// and, when it is, the number of distinct (mode0, mode1) coordinate
// pairs (a free by-product of the scan; 0 when unsorted or fewer than
// two modes, since the count is only cheap on sorted data).
func scanOrder(x *sptensor.Tensor) (bool, int) {
	nnz := x.NNZ()
	n := x.NModes()
	if nnz == 0 {
		return true, 0
	}
	pairs := 1
	for e := 1; e < nnz; e++ {
		div := n
		for m := 0; m < n; m++ {
			a, b := x.Inds[m][e-1], x.Inds[m][e]
			if a < b {
				div = m
				break
			}
			if a > b {
				return false, 0
			}
		}
		if div <= 1 {
			pairs++
		}
	}
	if n < 2 {
		return true, 0
	}
	return true, pairs
}
