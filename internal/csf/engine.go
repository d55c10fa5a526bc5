// Package csf implements Compressed Sparse Fiber storage — the format of
// SPLATT (Smith & Karypis, the paper's related work [15]) — and a pooled
// MTTKRP engine over it. CSF arranges a slice's nonzeros as a forest:
// one tree level per mode, with nonzeros sharing an index prefix sharing
// the corresponding tree path. The MTTKRP then reuses each internal
// node's partial Khatri-Rao product across all of its leaves, cutting
// the per-nonzero work from (N−1)·K multiplies to roughly K at the
// deepest level, and — like the sorted-segment kernel — each root owns
// its output row, so no synchronization is needed.
//
// The paper's own kernels operate on plain COO; this package is the
// storage-format counterpoint its related-work section contrasts
// against, selected per mode by core's kernel policy.
package csf

import (
	"fmt"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
)

// tileTargetNNZ is the nonzero budget of one schedulable tile. The tile
// decomposition depends only on the tree (never on the worker count), so
// the summation order — and therefore the floating-point result — is
// identical for any number of workers.
const tileTargetNNZ = 4096

// splitThresholdNNZ is the root size above which a root stops being
// schedulable as a unit and is split at child (level-1) granularity into
// shard tiles that accumulate privately and merge afterwards.
const splitThresholdNNZ = tileTargetNNZ + tileTargetNNZ/2

// ModeOrder writes the CSF level order for a tree rooted at mode root
// into buf and returns it: the root first, then the remaining modes by
// increasing length (ties broken by mode index), which maximizes prefix
// sharing near the top of the tree. buf is reused when its capacity
// suffices; pass nil to allocate.
func ModeOrder(buf []int, dims []int, root int) []int {
	buf = buf[:0]
	buf = append(buf, root)
	for m := range dims {
		if m != root {
			buf = append(buf, m)
		}
	}
	rest := buf[1:]
	// Insertion sort: n is tiny and this must not allocate.
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0; j-- {
			a, b := rest[j-1], rest[j]
			if dims[a] < dims[b] || (dims[a] == dims[b] && a < b) {
				break
			}
			rest[j-1], rest[j] = b, a
		}
	}
	return buf
}

// ModeOrderBase writes the sorted-base level order for a tree rooted at
// mode root into buf and returns it: the root first, then the remaining
// modes in storage (ascending-index) order. For a slice stored in
// lexicographic mode order — what sptensor.Coalesce produces — this is
// the order the engine can build with at most one counting-sort pass
// instead of one per level: stable-sorting a lexicographically sorted
// slice by a single mode leaves the tie groups in exactly this nested
// order.
func ModeOrderBase(buf []int, n, root int) []int {
	buf = buf[:0]
	buf = append(buf, root)
	for m := 0; m < n; m++ {
		if m != root {
			buf = append(buf, m)
		}
	}
	return buf
}

// Level is one depth of the fiber forest. Node i at this level has
// index IDs[i] (in its mode's index space) and children (or value
// range, at the deepest level) [Ptr[i], Ptr[i+1]).
type Level struct {
	IDs []int32
	Ptr []int32
}

// tile is one unit of kernel work. A whole-root tile (shard < 0) owns
// roots [rLo, rHi) and writes their output rows directly — no other tile
// touches those rows. A shard tile (shard ≥ 0) owns the children
// [cLo, cHi) of the single oversized root rLo and accumulates into the
// engine's shard slot `shard`; the shards are folded into the root's
// output row serially, in tile order, after the parallel phase.
type tile struct {
	rLo, rHi int32
	cLo, cHi int32
	shard    int32
}

// tree is one pooled CSF orientation: the fiber forest rooted at a
// single output mode, plus its tile schedule. All slices are reused
// across Begin calls, so steady-state rebuilds allocate nothing.
type tree struct {
	order  []int
	levels []Level
	vals   []float64
	// rootVal[r] / childVal[c] are the value indices where root r's /
	// level-1 node c's subtree begins (one sentinel entry at the end), so
	// subtree nonzero counts are O(1) — the tile scheduler's weights.
	rootVal  []int32
	childVal []int32

	tiles   []tile
	cumTile []int32 // cumulative tile nonzero weights, len(tiles)+1
	wb      []int32 // worker→tile boundaries from WeightedBoundaries
	nSplit  int     // shard slots needed (number of shard tiles)
	built   bool
	// sortPasses records how many counting-sort passes the last build
	// spent (N for the radix path, 0–1 for the sorted-base fast path);
	// diagnostics only.
	sortPasses int8
}

// Engine is a pooled, multi-mode CSF MTTKRP engine: one tree orientation
// per output mode, built per slice (lazily, on the first MTTKRP of each
// mode, or eagerly via Build) with radix sorts into reusable buffers,
// and a tiled kernel on a persistent parallel.Pool. In steady state —
// once buffers have grown to the stream's working size — Begin, Build,
// and MTTKRP allocate nothing.
//
// Results are bit-identical across worker counts and across repeated
// calls: the tile decomposition depends only on the tree, whole-root
// tiles own their output rows, and shard tiles merge in tile order.
type Engine struct {
	workers int
	pool    *parallel.Pool

	// x is the active slice (nil before the first Begin); dims is its
	// mode lengths.
	x     *sptensor.Tensor
	dims  []int
	trees []*tree

	// Sorted-base fast path: baseHint is the caller's claim that the
	// active slice is lexicographically sorted by storage mode order;
	// baseState caches the engine's own verification of that claim
	// (never trusted blindly — an unsorted slice through the fast path
	// would produce duplicate roots and break the tile scheduler's
	// exclusive-ownership invariant).
	baseHint  bool
	baseState int8 // 0 unchecked, 1 verified sorted, 2 refuted

	// Build scratch: the double-buffered radix-sort permutation, the
	// counting-sort histogram, and the previous-coordinate register.
	perm, perm2 []int32
	count       []int32
	prev        []int32

	// Kernel scratch of the N ≠ 3 walk (walkInto): per worker, lcap
	// partial-product rows of kcap floats, one per internal tree level.
	// The three-way walk keeps its partial row in registers instead.
	scratch [][]float64
	kcap    int
	lcap    int

	// Shard accumulators for split roots, k floats per shard tile.
	shards []float64

	args engineArgs
}

// engineArgs carries one MTTKRP invocation through the pool without a
// closure; owned by the Engine and cleared after each call.
type engineArgs struct {
	e       *Engine
	t       *tree
	out     *dense.Matrix
	factors []*dense.Matrix
	k       int
}

func (a *engineArgs) reset() {
	e := a.e
	*a = engineArgs{e: e}
}

// NewEngine creates an engine for the given worker count (≤0 means
// GOMAXPROCS), dispatching through the shared default pool.
func NewEngine(workers int) *Engine {
	return NewEngineWithPool(workers, parallel.Default())
}

// NewEngineWithPool is NewEngine on an explicit pool.
func NewEngineWithPool(workers int, pool *parallel.Pool) *Engine {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	e := &Engine{workers: workers, pool: pool}
	e.args.e = e
	return e
}

// Begin points the engine at a new slice and invalidates every tree.
// The slice must not be mutated while the engine is in use. Trees are
// rebuilt lazily on the first MTTKRP per mode (or eagerly via Build).
func (e *Engine) Begin(x *sptensor.Tensor) {
	e.x = x
	e.dims = x.Dims
	e.baseHint = false
	e.baseState = 0
	if len(e.trees) != len(e.dims) {
		e.trees = make([]*tree, len(e.dims))
	}
	for _, t := range e.trees {
		if t != nil {
			t.built = false
		}
	}
}

// SetSortedBase declares that the slice passed to the latest Begin is
// stored in lexicographic (mode 0, 1, …) order, enabling the sorted
// fast build: trees use the ModeOrderBase level order and need zero
// (root mode 0) or one (other roots) counting-sort passes instead of
// one per level. The claim is verified once per Begin with a single
// O(nnz) scan before the first build uses it; a refuted claim silently
// falls back to the full radix path, so a wrong hint costs only the
// scan. Cleared by the next Begin.
func (e *Engine) SetSortedBase() {
	e.baseHint = true
}

// baseUsable verifies the sorted-base hint on first use.
func (e *Engine) baseUsable() bool {
	if !e.baseHint || e.x == nil {
		return false
	}
	if e.baseState == 0 {
		if lexSorted(e.x) {
			e.baseState = 1
		} else {
			e.baseState = 2
		}
	}
	return e.baseState == 1
}

// lexSorted reports whether x is strictly sorted lexicographically by
// storage mode order. Strictness matters: with no duplicate
// coordinates, every nonzero opens its own leaf, which is what lets the
// sorted build bulk-fill the leaf level. Coalesced slices are strictly
// sorted by construction; a duplicated coordinate refutes the hint and
// the build falls back to the duplicate-coalescing radix path.
func lexSorted(x *sptensor.Tensor) bool {
	n := x.NModes()
	for e := 1; e < x.NNZ(); e++ {
		tie := true
		for m := 0; m < n; m++ {
			a, b := x.Inds[m][e-1], x.Inds[m][e]
			if a < b {
				tie = false
				break
			}
			if a > b {
				return false
			}
		}
		if tie {
			return false
		}
	}
	return true
}

// Build constructs the tree rooted at mode now (normally done lazily by
// MTTKRP). Exposed so callers can keep the build inside their Pre phase.
func (e *Engine) Build(mode int) {
	e.tree(mode)
}

// Built reports whether mode's tree is current for the active slice.
func (e *Engine) Built(mode int) bool {
	return e.x != nil && mode < len(e.trees) && e.trees[mode] != nil && e.trees[mode].built
}

func (e *Engine) tree(mode int) *tree {
	if e.x == nil {
		panic("csf: Engine used before Begin")
	}
	if mode < 0 || mode >= len(e.trees) {
		panic(fmt.Sprintf("csf: mode %d out of range", mode))
	}
	t := e.trees[mode]
	if t == nil {
		t = &tree{levels: make([]Level, len(e.dims))}
		e.trees[mode] = t
	}
	if !t.built {
		e.buildTree(t, mode)
	}
	return t
}

// buildTree (re)builds t as the CSF orientation rooted at mode: an LSD
// radix sort of the nonzeros (one stable counting sort per level, last
// level first) followed by a single pass that opens a node at level l
// whenever any coordinate at levels ≤ l changes, then the tile schedule.
func (e *Engine) buildTree(t *tree, mode int) {
	n := len(e.dims)
	if n < 2 {
		panic("csf: need ≥ 2 modes")
	}
	x := e.x
	if e.baseUsable() {
		t.order = ModeOrderBase(t.order, n, mode)
		perm := e.sortPermSorted(x, mode, t)
		e.buildLevelsSorted(t, perm)
	} else {
		t.order = ModeOrder(t.order, x.Dims, mode)
		perm := e.sortPerm(x, t.order)
		t.sortPasses = int8(n)
		e.buildLevels(t, perm)
	}

	t.buildTiles(e.workers)
	t.built = true
}

// buildLevels is the general level construction: one pass over the
// sorted permutation, opening a node at level l whenever any coordinate
// at levels ≤ l changes; duplicate coordinates (div == n) coalesce into
// the previous leaf's value range.
func (e *Engine) buildLevels(t *tree, perm []int32) {
	x := e.x
	n := len(e.dims)
	for l := range t.levels {
		t.levels[l].IDs = t.levels[l].IDs[:0]
		t.levels[l].Ptr = t.levels[l].Ptr[:0]
	}
	t.vals = t.vals[:0]
	t.rootVal = t.rootVal[:0]
	t.childVal = t.childVal[:0]
	if cap(e.prev) < n {
		e.prev = make([]int32, n)
	}
	prev := e.prev[:n]

	for g, p := range perm {
		t.vals = append(t.vals, x.Vals[p])
		// div = first level whose coordinate differs from the previous
		// nonzero; duplicates (div == n) extend the last leaf's value
		// range, coalescing for free.
		div := 0
		if g > 0 {
			div = n
			for l := 0; l < n; l++ {
				if x.Inds[t.order[l]][p] != prev[l] {
					div = l
					break
				}
			}
		}
		for l := div; l < n; l++ {
			idx := x.Inds[t.order[l]][p]
			prev[l] = idx
			lev := &t.levels[l]
			lev.IDs = append(lev.IDs, idx)
			if l == n-1 {
				lev.Ptr = append(lev.Ptr, int32(g))
			} else {
				// Child start = the next level's node count before this
				// round appends to it (levels are opened top-down).
				lev.Ptr = append(lev.Ptr, int32(len(t.levels[l+1].IDs)))
			}
			if l == 0 {
				t.rootVal = append(t.rootVal, int32(g))
			}
			if l == 1 {
				t.childVal = append(t.childVal, int32(g))
			}
		}
	}

	nnz := int32(len(perm))
	for l := 0; l < n-1; l++ {
		t.levels[l].Ptr = append(t.levels[l].Ptr, int32(len(t.levels[l+1].IDs)))
	}
	t.levels[n-1].Ptr = append(t.levels[n-1].Ptr, nnz)
	t.rootVal = append(t.rootVal, nnz)
	t.childVal = append(t.childVal, nnz)
}

// buildLevelsSorted is the level construction for verified strictly
// sorted slices (see lexSorted): every nonzero opens its own leaf, so
// the leaf level's IDs/Ptr and the value array are bulk-filled, and the
// per-nonzero loop only compares the n−1 upper coordinates — the
// append-per-level work of the general path collapses to the (rare)
// upper-node opens. This is what makes CSF builds over coalesced
// streaming slices nearly free of sorting AND construction cost.
func (e *Engine) buildLevelsSorted(t *tree, perm []int32) {
	x := e.x
	n := x.NModes()
	nnz := len(perm)

	leaf := &t.levels[n-1]
	leaf.IDs = grow(leaf.IDs, nnz)
	leaf.Ptr = grow(leaf.Ptr, nnz+1)
	t.vals = grow(t.vals, nnz)
	leafCol := x.Inds[t.order[n-1]]
	for i, p := range perm {
		t.vals[i] = x.Vals[p]
		leaf.IDs[i] = leafCol[p]
	}
	for i := range leaf.Ptr {
		leaf.Ptr[i] = int32(i)
	}

	for l := 0; l < n-1; l++ {
		t.levels[l].IDs = t.levels[l].IDs[:0]
		t.levels[l].Ptr = t.levels[l].Ptr[:0]
	}
	t.rootVal = t.rootVal[:0]
	t.childVal = t.childVal[:0]
	if cap(e.prev) < n {
		e.prev = make([]int32, n)
	}
	prev := e.prev[:n]

	for i := 0; i < nnz; i++ {
		p := perm[i]
		div := 0
		if i > 0 {
			div = n - 1
			for l := 0; l < n-1; l++ {
				if x.Inds[t.order[l]][p] != prev[l] {
					div = l
					break
				}
			}
		}
		for l := div; l < n-1; l++ {
			idx := x.Inds[t.order[l]][p]
			prev[l] = idx
			lev := &t.levels[l]
			lev.IDs = append(lev.IDs, idx)
			if l == n-2 {
				// The child level is the bulk-filled leaf: its node
				// count at this point is exactly i.
				lev.Ptr = append(lev.Ptr, int32(i))
			} else {
				lev.Ptr = append(lev.Ptr, int32(len(t.levels[l+1].IDs)))
			}
			if l == 0 {
				t.rootVal = append(t.rootVal, int32(i))
			}
			if l == 1 {
				t.childVal = append(t.childVal, int32(i))
			}
		}
	}
	for l := 0; l < n-2; l++ {
		t.levels[l].Ptr = append(t.levels[l].Ptr, int32(len(t.levels[l+1].IDs)))
	}
	t.levels[n-2].Ptr = append(t.levels[n-2].Ptr, int32(nnz))
	if n == 2 {
		// Level 1 is the leaf itself: its value ranges are the identity,
		// like the leaf Ptr.
		t.childVal = grow(t.childVal, nnz+1)
		for i := range t.childVal {
			t.childVal[i] = int32(i)
		}
	} else {
		t.childVal = append(t.childVal, int32(nnz))
	}
	t.rootVal = append(t.rootVal, int32(nnz))
}

// grow reslices s to length n, reallocating only when capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortPerm returns the nonzero permutation sorted lexicographically by
// the coordinates in level order, via one stable counting sort per level
// from the last key to the first. Both permutation buffers and the
// histogram are engine-owned and reused.
func (e *Engine) sortPerm(x *sptensor.Tensor, order []int) []int32 {
	nnz := x.NNZ()
	if cap(e.perm) < nnz {
		e.perm = make([]int32, nnz)
	}
	if cap(e.perm2) < nnz {
		e.perm2 = make([]int32, nnz)
	}
	src, dst := e.perm[:nnz], e.perm2[:nnz]
	for i := range src {
		src[i] = int32(i)
	}
	for l := len(order) - 1; l >= 0; l-- {
		col := x.Inds[order[l]]
		dim := x.Dims[order[l]]
		if cap(e.count) < dim {
			e.count = make([]int32, dim)
		}
		cnt := e.count[:dim]
		for i := range cnt {
			cnt[i] = 0
		}
		for _, p := range src {
			cnt[col[p]]++
		}
		sum := int32(0)
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		for _, p := range src {
			i := col[p]
			dst[cnt[i]] = p
			cnt[i]++
		}
		src, dst = dst, src
	}
	e.perm, e.perm2 = src[:cap(src)], dst[:cap(dst)]
	return src
}

// sortPermSorted is the verified-sorted fast path for the ModeOrderBase
// level order: the slice is already in lexicographic storage order, so
// a tree rooted at mode 0 needs the identity permutation and any other
// root needs exactly one stable counting sort by the root coordinate —
// stability preserves the lexicographic order of the remaining modes
// inside each root group, which is precisely the (root, 0, 1, …) order
// the tree wants.
func (e *Engine) sortPermSorted(x *sptensor.Tensor, root int, t *tree) []int32 {
	nnz := x.NNZ()
	if cap(e.perm) < nnz {
		e.perm = make([]int32, nnz)
	}
	src := e.perm[:nnz]
	for i := range src {
		src[i] = int32(i)
	}
	if root == 0 {
		t.sortPasses = 0
		return src
	}
	if cap(e.perm2) < nnz {
		e.perm2 = make([]int32, nnz)
	}
	dst := e.perm2[:nnz]
	col := x.Inds[root]
	dim := x.Dims[root]
	if cap(e.count) < dim {
		e.count = make([]int32, dim)
	}
	cnt := e.count[:dim]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, i := range col {
		cnt[i]++
	}
	sum := int32(0)
	for i, c := range cnt {
		cnt[i] = sum
		sum += c
	}
	for p := int32(0); p < int32(nnz); p++ {
		i := col[p]
		dst[cnt[i]] = p
		cnt[i]++
	}
	e.perm, e.perm2 = dst[:cap(dst)], src[:cap(src)]
	t.sortPasses = 1
	return dst
}

// buildTiles decomposes the tree into ~tileTargetNNZ-nonzero tiles:
// consecutive small roots are batched into whole-root tiles; a root
// above splitThresholdNNZ becomes shard tiles cut at child granularity.
// The decomposition depends only on the tree; workers only affects the
// nnz-balanced boundary assignment.
func (t *tree) buildTiles(workers int) {
	t.tiles = t.tiles[:0]
	t.nSplit = 0
	roots := len(t.levels[0].IDs)
	r := 0
	for r < roots {
		if int(t.rootVal[r+1]-t.rootVal[r]) > splitThresholdNNZ {
			cHi := int(t.levels[0].Ptr[r+1])
			c := int(t.levels[0].Ptr[r])
			first := len(t.tiles)
			for c < cHi {
				cs := c
				base := int(t.childVal[c])
				for c < cHi && int(t.childVal[c+1])-base <= tileTargetNNZ {
					c++
				}
				if c == cs {
					c++ // a single child exceeding the budget is one tile
				}
				t.tiles = append(t.tiles, tile{
					rLo: int32(r), rHi: int32(r + 1),
					cLo: int32(cs), cHi: int32(c),
					shard: int32(t.nSplit),
				})
				t.nSplit++
			}
			if len(t.tiles) == first+1 {
				// The whole root fit one tile after all: no sharing, so
				// write the output row directly.
				t.tiles[first] = tile{rLo: int32(r), rHi: int32(r + 1), shard: -1}
				t.nSplit--
			}
			r++
			continue
		}
		start := r
		base := int(t.rootVal[r])
		for r < roots && int(t.rootVal[r+1])-base <= tileTargetNNZ {
			r++
		}
		if r == start {
			r++ // single root in (target, splitThreshold]: keep whole
		}
		t.tiles = append(t.tiles, tile{rLo: int32(start), rHi: int32(r), shard: -1})
	}

	nt := len(t.tiles)
	t.cumTile = grow(t.cumTile, nt+1)
	t.cumTile[0] = 0
	for i := range t.tiles {
		tl := &t.tiles[i]
		var w int32
		if tl.shard >= 0 {
			w = t.childVal[tl.cHi] - t.childVal[tl.cLo]
		} else {
			w = t.rootVal[tl.rHi] - t.rootVal[tl.rLo]
		}
		t.cumTile[i+1] = t.cumTile[i] + w
	}
	t.wb = parallel.WeightedBoundaries(t.wb, t.cumTile, workers)
}

// ensureScratch grows the per-worker partial-product arenas to hold one
// rank-k row per tree level.
func (e *Engine) ensureScratch(k, nLevels int) {
	if k > e.kcap || nLevels > e.lcap {
		if k > e.kcap {
			e.kcap = k
		}
		if nLevels > e.lcap {
			e.lcap = nLevels
		}
		for w := range e.scratch {
			e.scratch[w] = make([]float64, e.lcap*e.kcap)
		}
	}
	for len(e.scratch) < e.workers {
		e.scratch = append(e.scratch, make([]float64, e.lcap*e.kcap))
	}
}

func (e *Engine) checkShapes(out *dense.Matrix, factors []*dense.Matrix, mode int) int {
	if len(factors) != len(e.dims) {
		panic(fmt.Sprintf("csf: %d factors for %d modes", len(factors), len(e.dims)))
	}
	k := factors[0].Cols
	for m, f := range factors {
		if f.Cols != k {
			panic("csf: factor rank mismatch")
		}
		if f.Rows != e.dims[m] {
			panic(fmt.Sprintf("csf: factor %d has %d rows for dim %d", m, f.Rows, e.dims[m]))
		}
	}
	if out.Rows != e.dims[mode] || out.Cols != k {
		panic("csf: output shape mismatch")
	}
	return k
}

// MTTKRP computes out = MTTKRP(x, factors, mode) over the pooled tree
// rooted at mode (built now if the slice changed since the last call).
// Steady-state allocation-free; bit-identical across worker counts.
func (e *Engine) MTTKRP(out *dense.Matrix, factors []*dense.Matrix, mode int) {
	t := e.tree(mode)
	k := e.checkShapes(out, factors, mode)
	out.Zero()
	if len(t.vals) == 0 {
		return
	}
	e.ensureScratch(k, len(t.order))
	e.shards = grow(e.shards, t.nSplit*k)
	a := &e.args
	a.t, a.out, a.factors, a.k = t, out, factors, k
	active := len(t.wb) - 1
	e.pool.Do(active, active, a, tileBody)
	// Fold shard partials into their root rows in tile order — serial
	// and deterministic regardless of which worker produced each shard.
	if t.nSplit > 0 {
		ids := t.levels[0].IDs
		for i := range t.tiles {
			tl := &t.tiles[i]
			if tl.shard < 0 {
				continue
			}
			row := out.Row(int(ids[tl.rLo]))
			sh := e.shards[int(tl.shard)*k : int(tl.shard)*k+k]
			for j, v := range sh {
				row[j] += v
			}
		}
	}
	a.reset()
}

func tileBody(ctx any, w int, r parallel.Range) {
	a := ctx.(*engineArgs)
	e, t := a.e, a.t
	sc := e.scratch[w]
	three := len(t.order) == 3
	var fB, fC *dense.Matrix
	if three {
		fB, fC = a.factors[t.order[1]], a.factors[t.order[2]]
	}
	ids, ptr := t.levels[0].IDs, t.levels[0].Ptr
	for wi := r.Lo; wi < r.Hi; wi++ {
		for ti := t.wb[wi]; ti < t.wb[wi+1]; ti++ {
			tl := &t.tiles[ti]
			if tl.shard >= 0 {
				dst := e.shards[int(tl.shard)*a.k : int(tl.shard)*a.k+a.k]
				for j := range dst {
					dst[j] = 0
				}
				if three {
					t.walk3Into(int(tl.cLo), int(tl.cHi), fB, fC, dst)
				} else {
					t.walkInto(sc, e.kcap, 1, int(tl.cLo), int(tl.cHi), a.factors, dst, a.k)
				}
				continue
			}
			for root := tl.rLo; root < tl.rHi; root++ {
				dst := a.out.Row(int(ids[root]))
				if three {
					t.walk3Into(int(ptr[root]), int(ptr[root+1]), fB, fC, dst)
				} else {
					t.walkInto(sc, e.kcap, 1, int(ptr[root]), int(ptr[root+1]), a.factors, dst, a.k)
				}
			}
		}
	}
}

// walkInto processes nodes [lo, hi) of level l, accumulating each
// node's subtree contribution (scaled by the node's factor row) into
// dst. sc provides one kcap-strided partial row per level.
func (t *tree) walkInto(sc []float64, kcap, l, lo, hi int, factors []*dense.Matrix, dst []float64, k int) {
	lev := &t.levels[l]
	f := factors[t.order[l]]
	if l == len(t.order)-1 {
		for node := lo; node < hi; node++ {
			row := f.Row(int(lev.IDs[node]))
			v := 0.0
			for e := lev.Ptr[node]; e < lev.Ptr[node+1]; e++ {
				v += t.vals[e]
			}
			for j := 0; j < k; j++ {
				dst[j] += v * row[j]
			}
		}
		return
	}
	acc := sc[l*kcap : l*kcap+k]
	for node := lo; node < hi; node++ {
		row := f.Row(int(lev.IDs[node]))
		for j := range acc {
			acc[j] = 0
		}
		t.walkInto(sc, kcap, l+1, int(lev.Ptr[node]), int(lev.Ptr[node+1]), factors, acc, k)
		for j := 0; j < k; j++ {
			dst[j] += acc[j] * row[j]
		}
	}
}

// panelCols is the width of walk3Into's register panel (the same eight
// columns as mttkrp's: one cache line of a factor row, and eight
// accumulators plus operands fit amd64's fifteen usable XMM registers).
const panelCols = 8

// walk3Into is the fused three-way fast path: level-1 nodes [lo, hi)
// with their leaves inlined, no recursion and no scratch row. Per
// level-1 node it carries eight columns of the leaf sum in locals —
// zero, then + v·rc[j] per leaf in leaf order — and folds them into dst
// as dst[j] += acc[j]·rb[j]; K is covered by ⌊K/8⌋ such panels and, for
// the last K mod 8 columns, one pass with the partial row on the stack
// (a column at a time would walk the node's leaves up to seven more
// times). Each column sees the operations of the
// scratch-row form in the same order (products rounded by the explicit
// float64 conversion before the add, so no platform fuses them), hence
// bit-identical results.
func (t *tree) walk3Into(lo, hi int, fB, fC *dense.Matrix, dst []float64) {
	l1, l2 := &t.levels[1], &t.levels[2]
	vals := t.vals
	cd, cs := fC.Data, fC.Stride
	k := len(dst)
	for c := lo; c < hi; c++ {
		rb := fB.Row(int(l1.IDs[c]))[:k]
		leafLo, leafHi := int(l1.Ptr[c]), int(l1.Ptr[c+1])
		ids, ptr := l2.IDs[leafLo:leafHi], l2.Ptr[leafLo:leafHi+1]
		j := 0
		for ; j+panelCols <= k; j += panelCols {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for i, id := range ids {
				v := vals[ptr[i]]
				for e := ptr[i] + 1; e < ptr[i+1]; e++ {
					v += vals[e]
				}
				rc := (*[panelCols]float64)(cd[int(id)*cs+j:])
				a0 += float64(v * rc[0])
				a1 += float64(v * rc[1])
				a2 += float64(v * rc[2])
				a3 += float64(v * rc[3])
				a4 += float64(v * rc[4])
				a5 += float64(v * rc[5])
				a6 += float64(v * rc[6])
				a7 += float64(v * rc[7])
			}
			d, b := (*[panelCols]float64)(dst[j:]), (*[panelCols]float64)(rb[j:])
			d[0] += float64(a0 * b[0])
			d[1] += float64(a1 * b[1])
			d[2] += float64(a2 * b[2])
			d[3] += float64(a3 * b[3])
			d[4] += float64(a4 * b[4])
			d[5] += float64(a5 * b[5])
			d[6] += float64(a6 * b[6])
			d[7] += float64(a7 * b[7])
		}
		if w := k - j; w > 0 {
			// Tail columns: the scratch-row form over the last K mod 8
			// columns, in one pass over the leaves.
			var tail [panelCols]float64
			acc := tail[:w]
			for i, id := range ids {
				v := vals[ptr[i]]
				for e := ptr[i] + 1; e < ptr[i+1]; e++ {
					v += vals[e]
				}
				o := int(id)*cs + j
				for q, x := range cd[o : o+w] {
					acc[q] += float64(v * x)
				}
			}
			d := dst[j:k]
			for q, x := range rb[j:k] {
				d[q] += float64(acc[q] * x)
			}
		}
	}
}

// Stats summarizes one built tree for diagnostics and the cost model's
// cross-checks: node counts per level and the tile decomposition.
type Stats struct {
	Order      []int
	LevelNodes []int
	Tiles      int
	ShardTiles int
	// SortPasses is the counting-sort pass count of the last build:
	// one per level on the radix path, 0–1 on the sorted-base path.
	SortPasses int
}

// TreeStats returns layout statistics for mode's tree, building it if
// needed. Allocates; intended for tests, benchmarks, and diagnostics.
func (e *Engine) TreeStats(mode int) Stats {
	t := e.tree(mode)
	s := Stats{
		Order:      append([]int(nil), t.order...),
		LevelNodes: make([]int, len(t.levels)),
		Tiles:      len(t.tiles),
		ShardTiles: t.nSplit,
		SortPasses: int(t.sortPasses),
	}
	for l := range t.levels {
		s.LevelNodes[l] = len(t.levels[l].IDs)
	}
	return s
}
