package dense

import (
	"sync"

	"spstream/internal/parallel"
)

// The products below cover the shapes CP-stream needs:
//
//   MulAB   C = A·B        (I×K)·(K×K) → I×K   factor × Gram transform
//   MulAtB  C = Aᵀ·B       (I×K)ᵀ·(I×K) → K×K  cross-Gram H = A_{t-1}ᵀA
//   MulABt  C = A·Bᵀ       (I×K)·(K×K)ᵀ → I×K  solve against Cholesky out
//   Gram    C = Aᵀ·A       (I×K) → K×K         SYRK-style symmetric Gram
//
// The long dimension (rows of A) is blocked and parallelized; the K×K
// inner kernels stay dense and sequential. MulAB, MulAtB and MulABt run
// their row kernels directly; MulABParallel, MulAtBParallel and the Grams
// dispatch ctx-style through the persistent default pool with argument
// blocks drawn from a free list. MulAtBParallel and the Grams are
// block-keyed: one partial per fixed row block, merged in block order, so
// their bits do not depend on the worker count.

// gemmArgs carries one parallel product's operands through the pool
// without a closure, and the block partials of a K×K product. Recycled
// via a free list.
type gemmArgs struct {
	dst, a, b *Matrix
	upper     bool
	first     int // the first row block of the group in flight
	part      []float64
	tr        []float64 // per-worker column-major copies of a 64-row block of a and b
}

var gemmArgsPool struct {
	sync.Mutex
	free []*gemmArgs
}

func getGemmArgs(dst, a, b *Matrix) *gemmArgs {
	gemmArgsPool.Lock()
	var g *gemmArgs
	if n := len(gemmArgsPool.free); n > 0 {
		g = gemmArgsPool.free[n-1]
		gemmArgsPool.free = gemmArgsPool.free[:n-1]
		gemmArgsPool.Unlock()
	} else {
		gemmArgsPool.Unlock()
		g = new(gemmArgs)
	}
	g.dst, g.a, g.b = dst, a, b
	return g
}

func putGemmArgs(g *gemmArgs) {
	g.dst, g.a, g.b = nil, nil, nil
	gemmArgsPool.Lock()
	gemmArgsPool.free = append(gemmArgsPool.free, g)
	gemmArgsPool.Unlock()
}

// MulAB computes dst = a·b where a is m×k and b is k×n. dst must be m×n
// and must not alias a or b.
func MulAB(dst, a, b *Matrix) {
	checkMulAB(dst, a, b)
	mulABRange(dst, a, b, 0, a.Rows, false)
}

func checkMulAB(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("dense: MulAB shape mismatch")
	}
}

// mulCols is how many output columns mulRow carries in locals per pass
// over the inner dimension.
const mulCols = 4

// mulRow computes rd = ra·b, or rd += ra·b when add is set, for one
// output row: mulCols columns at a time are held in locals while kk runs
// over ra, so the only stores are the finished columns. Each column is
// still the ascending-kk sum of float64(av·b[kk][j]) with zero av
// skipped (which keeps a zero factor entry from turning an Inf or NaN
// in b into NaN), so it is bit-identical to accumulating in rd.
func mulRow(rd, ra []float64, b *Matrix, add bool) {
	bd, bs := b.Data, b.Stride
	j := 0
	for ; j+mulCols <= len(rd); j += mulCols {
		d := (*[mulCols]float64)(rd[j:])
		var c0, c1, c2, c3 float64
		if add {
			c0, c1, c2, c3 = d[0], d[1], d[2], d[3]
		}
		for kk, av := range ra {
			if av == 0 {
				continue
			}
			rb := (*[mulCols]float64)(bd[kk*bs+j:])
			c0 += float64(av * rb[0])
			c1 += float64(av * rb[1])
			c2 += float64(av * rb[2])
			c3 += float64(av * rb[3])
		}
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
	}
	for ; j < len(rd); j++ {
		c := 0.0
		if add {
			c = rd[j]
		}
		for kk, av := range ra {
			if av == 0 {
				continue
			}
			c += float64(av * bd[kk*bs+j])
		}
		rd[j] = c
	}
}

// AddMulRow computes rd += ra·b for one row (len(ra) == b.Rows,
// len(rd) == b.Cols).
func AddMulRow(rd, ra []float64, b *Matrix) {
	if len(ra) != b.Rows || len(rd) != b.Cols {
		panic("dense: AddMulRow shape mismatch")
	}
	mulRow(rd, ra, b, true)
}

func mulABRange(dst, a, b *Matrix, lo, hi int, add bool) {
	for i := lo; i < hi; i++ {
		mulRow(dst.Row(i), a.Row(i), b, add)
	}
}

func mulABBody(ctx any, _ int, r parallel.Range) {
	g := ctx.(*gemmArgs)
	mulABRange(g.dst, g.a, g.b, r.Lo, r.Hi, false)
}

// MulABParallel is MulAB with the row dimension parallelized over the
// given number of workers.
func MulABParallel(dst, a, b *Matrix, workers int) {
	checkMulAB(dst, a, b)
	if workers == 1 || a.Rows <= 1 {
		mulABRange(dst, a, b, 0, a.Rows, false)
		return
	}
	g := getGemmArgs(dst, a, b)
	parallel.Default().Do(a.Rows, workers, g, mulABBody)
	putGemmArgs(g)
}

// MulAtB computes dst = aᵀ·b where a is m×ka and b is m×kb; dst must be
// ka×kb and must not alias a or b. One ascending sum over all rows; for
// K×K products over a long row dimension use MulAtBParallel.
func MulAtB(dst, a, b *Matrix) {
	checkMulAtB(dst, a, b)
	dst.Zero()
	AddAtBRange(dst.Data, dst.Stride, a, b, 0, a.Rows, false)
}

func checkMulAtB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("dense: MulAtB shape mismatch")
	}
}

// MulAtBParallel is MulAtB over the shared row dimension in gramBlock
// row blocks shared out among the workers; its bits do not depend on
// workers.
func MulAtBParallel(dst, a, b *Matrix, workers int) {
	checkMulAtB(dst, a, b)
	atbBlocks(dst, a, b, workers, false)
}

// gramBlock is the row-block height of the block-keyed products
// (MulAtBParallel, Gram, GramParallel): every block's aᵀb is summed from
// zero into its own partial, and the partials are added in block order
// (parallel.SumBlocks), so the result is the same at any worker count.
// A matrix of at most gramBlock rows is one ascending sum.
const gramBlock = 256

// gramPart bounds the floats of partials one product holds: the blocks
// are summed a group at a time, and each group's partials are added onto
// the running total — SumBlocks over the total followed by the group,
// which repeats the additions of one merge over all blocks, since the
// total is never −0 — so a 400 000-row mode needs no more memory than a
// slice's nz rows.
const gramPart = 1 << 16

// atbBlocks sets dst = aᵀb (with upper, only the entries on or above the
// diagonal are defined) by gramBlock row blocks on the default pool.
// g.part holds the merge's output, the running total and the group's
// partials, n floats each. When a and b have the same column count and
// it is a multiple of 4, each block runs as the row sweep's Grams do:
// every 64-row sub-block copied column-major into the worker's g.tr
// (TransposeRows) and accumulated by AddAtBCols — AddAtBRange's bits.
func atbBlocks(dst, a, b *Matrix, workers int, upper bool) {
	n, nb := a.Cols*b.Cols, (a.Rows+gramBlock-1)/gramBlock
	group := min(nb, max(1, gramPart/n-2))
	g := getGemmArgs(dst, a, b)
	g.upper = upper
	if cap(g.part) < (group+2)*n {
		g.part = make([]float64, (group+2)*n)
	}
	g.tr = g.tr[:0]
	if k := a.Cols; k == b.Cols && k%4 == 0 {
		tr := parallel.ClampWorkers(workers, group) * 2 * atbBlock * k
		if cap(g.tr) < tr {
			g.tr = make([]float64, tr)
		}
		g.tr = g.tr[:tr]
	}
	merged, total := g.part[:n], g.part[n:2*n]
	clear(total)
	for g.first = 0; g.first < nb; g.first += group {
		blocks := min(group, nb-g.first)
		parallel.Default().Do(blocks, workers, g, atbBlockBody)
		parallel.SumBlocks(merged, g.part[n:(2+blocks)*n])
		copy(total, merged)
	}
	for p := 0; p < a.Cols; p++ {
		copy(dst.Row(p), total[p*b.Cols:(p+1)*b.Cols])
	}
	putGemmArgs(g)
}

func atbBlockBody(ctx any, w int, r parallel.Range) {
	g := ctx.(*gemmArgs)
	k, n := g.a.Cols, g.a.Cols*g.b.Cols
	var at, bt []float64
	if len(g.tr) > 0 {
		tr := g.tr[w*2*atbBlock*k : (w+1)*2*atbBlock*k]
		at, bt = tr[:atbBlock*k], tr[atbBlock*k:]
	}
	for i := r.Lo; i < r.Hi; i++ {
		part := g.part[(2+i)*n : (3+i)*n]
		clear(part)
		lo := (g.first + i) * gramBlock
		hi := min(lo+gramBlock, g.a.Rows)
		if at == nil {
			AddAtBRange(part, g.b.Cols, g.a, g.b, lo, hi, g.upper)
			continue
		}
		for ; lo < hi; lo += atbBlock {
			end := min(lo+atbBlock, hi)
			TransposeRows(at, g.a, lo, end)
			x := at
			if g.b != g.a {
				TransposeRows(bt, g.b, lo, end)
				x = bt
			}
			AddAtBCols(part, k, at, x, end-lo, g.upper)
		}
	}
}

// atbBlock is the row-block height of AddAtBRange: a 64-row block of a and
// of b (8 KiB each at K = 16) stays in L1 while every output tile sweeps
// it.
const atbBlock = 64

// AddAtBRange accumulates aᵀ·b over rows [lo, hi) into the row-major
// accumulator acc (+=, row stride given) — the kernel under MulAtB and,
// unless AddAtBCols can run (4 dividing a common column count), under
// MulAtBParallel and, with upper set and b == a, under Gram, which needs
// only the entries on or above the diagonal; exported for callers that
// keep one partial per row block and reduce them themselves. Rows are
// taken in 64-row blocks; within a block each 2×4 tile of the output is held in locals while i runs over the
// block, so every entry is still the ascending-i sum of
// float64(a[i][p]·b[i][q]) with zero a[i][p] skipped — bit-identical to
// accumulating in memory. With upper set, tiles start at the four-column
// boundary at or left of the diagonal, so a straddling tile also writes
// entries below it; the caller's mirror overwrites those.
func AddAtBRange(acc []float64, stride int, a, b *Matrix, lo, hi int, upper bool) {
	ka, kb := a.Cols, b.Cols
	ad, as := a.Data, a.Stride
	bd, bs := b.Data, b.Stride
	for ; lo < hi; lo += atbBlock {
		end := min(lo+atbBlock, hi)
		p := 0
		for ; p+2 <= ka; p += 2 {
			q := 0
			if upper {
				q = p &^ 3
			}
			for ; q+4 <= kb; q += 4 {
				r0 := (*[4]float64)(acc[p*stride+q:])
				r1 := (*[4]float64)(acc[(p+1)*stride+q:])
				c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
				c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
				for i := lo; i < end; i++ {
					ra := (*[2]float64)(ad[i*as+p:])
					rb := (*[4]float64)(bd[i*bs+q:])
					if a0 := ra[0]; a0 != 0 {
						c00 += float64(a0 * rb[0])
						c01 += float64(a0 * rb[1])
						c02 += float64(a0 * rb[2])
						c03 += float64(a0 * rb[3])
					}
					if a1 := ra[1]; a1 != 0 {
						c10 += float64(a1 * rb[0])
						c11 += float64(a1 * rb[1])
						c12 += float64(a1 * rb[2])
						c13 += float64(a1 * rb[3])
					}
				}
				r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
				r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
			}
			for ; q < kb; q++ {
				atbEntry(&acc[p*stride+q], a, b, p, q, lo, end)
				atbEntry(&acc[(p+1)*stride+q], a, b, p+1, q, lo, end)
			}
		}
		if p < ka {
			// Odd last row: one entry at a time.
			q := 0
			if upper {
				q = p
			}
			for ; q < kb; q++ {
				atbEntry(&acc[p*stride+q], a, b, p, q, lo, end)
			}
		}
	}
}

// TransposeRows writes rows [lo, hi) of a into dst column-major, column p
// of the block at dst[p·n : (p+1)·n] for n = hi − lo: the layout
// AddAtBCols reads, and like it for a column count that is a multiple
// of 4.
func TransposeRows(dst []float64, a *Matrix, lo, hi int) {
	n, k := hi-lo, a.Cols
	if k%4 != 0 || len(dst) < k*n {
		panic("dense: TransposeRows shape mismatch")
	}
	rows := a.Data[lo*a.Stride:]
	for p := 0; p < k; p += 4 {
		d0 := dst[p*n : (p+1)*n]
		d1, d2, d3 := dst[(p+1)*n:], dst[(p+2)*n:], dst[(p+3)*n:]
		d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
		for r := range d0 {
			v := (*[4]float64)(rows[r*a.Stride+p:])
			d0[r], d1[r], d2[r], d3[r] = v[0], v[1], v[2], v[3]
		}
	}
}

// AddAtBCols is AddAtBRange over an n-row block of two k-column matrices
// given column-major (TransposeRows): acc += aᵀ·b, acc k×k with stride k,
// column p of a at at[p·n:] and column q of b at bt[q·n:]; k must be a
// multiple of 4. The tiles are AddAtBRange's — 2×4, under upper the set
// starting at the four-column boundary at or left of the diagonal — and
// each entry is the same ascending-i sum of float64(a[i][p]·b[i][q]) with
// zero a[i][p] skipped, so the bits are too. Only the addressing changed:
// a tile reads six contiguous columns, with no per-row index arithmetic.
func AddAtBCols(acc []float64, k int, at, bt []float64, n int, upper bool) {
	if k%4 != 0 || len(at) < k*n || len(bt) < k*n || len(acc) < k*k {
		panic("dense: AddAtBCols shape mismatch")
	}
	if n == 0 {
		return
	}
	for p := 0; p < k; p += 2 {
		a0 := at[p*n : (p+1)*n]
		a1 := at[(p+1)*n : (p+2)*n]
		a1 = a1[:len(a0)]
		q := 0
		if upper {
			q = p &^ 3
		}
		for ; q < k; q += 4 {
			b0 := bt[q*n : (q+1)*n]
			b1, b2, b3 := bt[(q+1)*n:], bt[(q+2)*n:], bt[(q+3)*n:]
			b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
			r0 := (*[4]float64)(acc[p*k+q:])
			r1 := (*[4]float64)(acc[(p+1)*k+q:])
			c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
			c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
			// b is read in each branch rather than once before them: SSE
			// multiplies overwrite an operand, and fourteen live values
			// would spill.
			for i, x0 := range a0 {
				if x0 != 0 {
					c00 += float64(x0 * b0[i])
					c01 += float64(x0 * b1[i])
					c02 += float64(x0 * b2[i])
					c03 += float64(x0 * b3[i])
				}
				if x1 := a1[i]; x1 != 0 {
					c10 += float64(x1 * b0[i])
					c11 += float64(x1 * b1[i])
					c12 += float64(x1 * b2[i])
					c13 += float64(x1 * b3[i])
				}
			}
			r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
			r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		}
	}
}

// atbEntry adds Σ_{i∈[lo,hi)} a[i][p]·b[i][q] to *dst — the edge of
// AddAtBRange where no full 2×4 tile fits.
func atbEntry(dst *float64, a, b *Matrix, p, q, lo, hi int) {
	c := *dst
	for i := lo; i < hi; i++ {
		if av := a.Data[i*a.Stride+p]; av != 0 {
			c += float64(av * b.Data[i*b.Stride+q])
		}
	}
	*dst = c
}

// MulABt computes dst = a·bᵀ where a is m×k and b is n×k; dst must be m×n
// and must not alias a or b.
func MulABt(dst, a, b *Matrix) {
	checkMulABt(dst, a, b)
	mulABtRange(dst, a, b, 0, a.Rows)
}

func checkMulABt(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("dense: MulABt shape mismatch")
	}
}

func mulABtRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ra := a.Row(i)
		rd := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			rb := b.Row(j)
			sum := 0.0
			for p, av := range ra {
				sum += av * rb[p]
			}
			rd[j] = sum
		}
	}
}

// Gram computes dst = aᵀ·a (K×K symmetric) exploiting symmetry: only the
// tiles on or above the diagonal are accumulated (AddAtBCols over
// column-major copies when K is a multiple of 4, AddAtBRange otherwise),
// by gramBlock row blocks, then the upper triangle is mirrored.
func Gram(dst, a *Matrix) { GramParallel(dst, a, 1) }

// GramParallel is Gram with its row blocks shared out among the given
// number of workers; its bits do not depend on workers.
func GramParallel(dst, a *Matrix, workers int) {
	if dst.Rows != a.Cols || dst.Cols != a.Cols {
		panic("dense: Gram shape mismatch")
	}
	atbBlocks(dst, a, a, workers, true)
	for x := 0; x < a.Cols; x++ {
		for y := x + 1; y < a.Cols; y++ {
			dst.Data[y*dst.Stride+x] = dst.Data[x*dst.Stride+y]
		}
	}
}

// OuterProduct computes dst = u·vᵀ for vectors u (len m) and v (len n);
// dst must be m×n.
func OuterProduct(dst *Matrix, u, v []float64) {
	if dst.Rows != len(u) || dst.Cols != len(v) {
		panic("dense: OuterProduct shape mismatch")
	}
	for i, uv := range u {
		row := dst.Row(i)
		for j, vv := range v {
			row[j] = uv * vv
		}
	}
}

// MulVec computes dst = a·x for a m×k matrix and length-k vector.
func MulVec(dst []float64, a *Matrix, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic("dense: MulVec shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		sum := 0.0
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] = sum
	}
}

// MulVecT computes dst = aᵀ·x for a m×k matrix and length-m vector x;
// dst has length k.
func MulVecT(dst []float64, a *Matrix, x []float64) {
	if len(dst) != a.Cols || len(x) != a.Rows {
		panic("dense: MulVecT shape mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(u, v []float64) float64 {
	if len(u) != len(v) {
		panic("dense: Dot length mismatch")
	}
	sum := 0.0
	for i, x := range u {
		sum += x * v[i]
	}
	return sum
}
