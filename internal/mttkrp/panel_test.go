package mttkrp

import (
	"fmt"
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// The register-panel kernels replaced scratch-row bodies that formed one
// rank-K product row per nonzero in memory and added it to an
// accumulator row. The references below are those bodies, kept as they
// were (minus the worker loops, which cannot matter: every output row
// has one writer, and the time-mode partition is reproduced exactly).
// The rewired kernels must match them bit for bit.

// refPlanMTTKRP is the scratch-row planBody over every segment of the
// mode's row-order copy, read off a kernel compiled over one tensor.
func refPlanMTTKRP(out *dense.Matrix, plan *Kernel, factors []*dense.Matrix, mode int) {
	pr := &plan.pairs[mode]
	x := &pr.x
	k := out.Cols
	out.Zero()
	buf := make([]float64, k)
	acc := make([]float64, k)
	lo := int32(0)
	for seg, hi := range pr.ends {
		for j := range acc {
			acc[j] = 0
		}
		for e := int(lo); e < int(hi); e++ {
			rowProduct(buf, x, factors, mode, e, x.Vals[e])
			for j, v := range buf {
				acc[j] += v
			}
		}
		copy(out.Row(int(pr.rows[seg])), acc)
		lo = hi
	}
}

// refStreamMTTKRP is the scratch-row streamBlockBody: block by block,
// each nonzero's product row added straight into its output row. The
// stable per-block sort kept a row's nonzeros in entry order, so walking
// the block in entry order performs the same additions per row.
func refStreamMTTKRP(out *dense.Matrix, src sptensor.BlockSource, factors []*dense.Matrix, mode int) {
	out.Zero()
	buf := make([]float64, out.Cols)
	for b := 0; b < src.Blocks(); b++ {
		x, err := src.Block(b)
		if err != nil {
			panic(err)
		}
		for e := 0; e < x.NNZ(); e++ {
			rowProduct(buf, x, factors, mode, e, x.Vals[e])
			row := out.Row(int(x.Inds[mode][e]))
			for j, v := range buf {
				row[j] += v
			}
		}
	}
}

// refTimeMode is the scratch-row time-mode body, block-keyed: every
// 4096-nonzero span summed into its own zeroed partial, the partials
// added to the zeroed dst in span order — at any worker count.
func refTimeMode(dst []float64, x *sptensor.Tensor, factors []*dense.Matrix) {
	clear(dst)
	buf := make([]float64, len(dst))
	for lo := 0; lo < x.NNZ(); lo += 4096 {
		acc := make([]float64, len(dst))
		for e := lo; e < min(lo+4096, x.NNZ()); e++ {
			timeModeRow(buf, x, factors, e)
			for j, v := range buf {
				acc[j] += v
			}
		}
		for j, v := range acc {
			dst[j] += v
		}
	}
}

// hostileSlice builds an uncoalesced slice with the shapes the panel
// must not trip over: odd rows never touched (empty segments), row 0 of
// every mode hot (150 consecutive nonzeros, so a small stream block size
// splits it across blocks), the last row of every mode hit exactly once,
// duplicate coordinates and a −0 value — plus, with nonFinite set, ±Inf
// and NaN values (which turn whole output rows, and the whole time-mode
// row, non-finite; the finite variant keeps those comparisons sharp).
func hostileSlice(seed uint64, dims []int, nonFinite bool) *sptensor.Tensor {
	r := synth.NewRNG(seed)
	x := sptensor.New(dims...)
	coord := make([]int32, len(dims))
	draw := func() {
		for m, d := range dims {
			coord[m] = int32(2 * r.Intn((d-1)/2)) // even, never the last row
		}
	}
	for e := 0; e < 300; e++ {
		draw()
		x.Append(coord, r.NormFloat64())
	}
	for m := range dims {
		for e := 0; e < 150; e++ {
			draw()
			coord[m] = 0
			x.Append(coord, r.NormFloat64())
		}
	}
	for m, d := range dims {
		coord[m] = int32(d - 1)
	}
	x.Append(coord, r.NormFloat64())
	for e := 0; e < 300; e++ {
		draw()
		x.Append(coord, r.NormFloat64())
	}
	x.Vals[5] = math.Copysign(0, -1)
	if nonFinite {
		x.Vals[50] = math.Inf(1)
		x.Vals[400] = math.Inf(-1)
		x.Vals[700] = math.NaN()
	}
	return x
}

// stridedFactors returns rank-k factors that are RowViews into wider
// backing matrices (Stride = k+3, one spare row above and below), with
// the padding poisoned so a kernel that reads outside a row shows up,
// a −0 entry and, with nonFinite set, a +Inf entry.
func stridedFactors(seed uint64, dims []int, k int, nonFinite bool) []*dense.Matrix {
	r := synth.NewRNG(seed)
	out := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		stride := k + 3
		back := &dense.Matrix{Rows: d + 2, Cols: k, Stride: stride, Data: make([]float64, (d+2)*stride)}
		for i := range back.Data {
			back.Data[i] = math.NaN()
		}
		f := back.RowView(1, d+1)
		for i := 0; i < d; i++ {
			row := f.Row(i)
			for j := range row {
				row[j] = r.NormFloat64()
			}
		}
		f.Row(2 % d)[0] = math.Copysign(0, -1)
		if nonFinite {
			f.Row(4 % d)[k-1] = math.Inf(1)
		}
		out[m] = f
	}
	return out
}

// sameBits reports whether got and want hold the same float64 bit
// patterns. Two NaNs count as equal whatever their payloads: which
// operand's payload an addition propagates is the compiler's choice of
// instruction operand order, not a property of the kernel.
func sameBits(got, want []float64) (int, bool) {
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i, false
		}
	}
	return 0, true
}

func requireSameMatrix(t *testing.T, what string, got, want *dense.Matrix) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		if j, ok := sameBits(got.Row(i), want.Row(i)); !ok {
			t.Fatalf("%s: [%d,%d] = %x, reference %x", what, i, j,
				math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
		}
	}
}

var (
	panelRanks   = []int{1, 7, 8, 9, 16, 17, 24, 32}
	panelWorkers = []int{1, 2, 7}
	panelShapes  = [][]int{{11, 40, 9}, {5, 13, 4, 6}}
)

// TestPanelKernelsBitIdentical pins Kernel.MTTKRP — compiled over the
// tensor and begun over its blocks — and Computer.TimeMode to the
// scratch-row bodies they replaced: ranks around the panel width (tail only, one panel,
// panel + tail, several panels), worker counts below, at and above the
// pool size, three-way (panel) and four-way (generic body) slices,
// strided factor views.
func TestPanelKernelsBitIdentical(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, nonFinite := range []bool{false, true} {
		for _, dims := range panelShapes {
			x := hostileSlice(7, dims, nonFinite)
			src, err := sptensor.SplitBlocks(x, 37)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range panelRanks {
				factors := stridedFactors(uint64(k), dims, k, nonFinite)
				for _, workers := range panelWorkers {
					name := fmt.Sprintf("%d-way nonFinite=%v K=%d W=%d", len(dims), nonFinite, k, workers)
					c := NewComputerWithPool(workers, pool)
					blocks := NewKernel(c)
					if err := blocks.Begin(src); err != nil {
						t.Fatal(err)
					}
					plan := compiled(t, c, x)
					for mode, d := range dims {
						want := dense.NewMatrix(d, k)
						got := dense.NewMatrix(d, k)
						refPlanMTTKRP(want, plan, factors, mode)
						got.Fill(3)
						mustMTTKRP(t, plan, got, factors, mode)
						requireSameMatrix(t, fmt.Sprintf("%s compiled MTTKRP mode %d", name, mode), got, want)

						refStreamMTTKRP(want, src, factors, mode)
						got.Fill(3)
						mustMTTKRP(t, blocks, got, factors, mode)
						requireSameMatrix(t, fmt.Sprintf("%s blocks MTTKRP mode %d", name, mode), got, want)
					}
					want := make([]float64, k)
					got := make([]float64, k)
					refTimeMode(want, x, factors)
					c.TimeMode(got, x, factors)
					if j, ok := sameBits(got, want); !ok {
						t.Fatalf("%s TimeMode[%d] = %x, reference %x", name, j,
							math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestTimeModeChunkSeam runs the time-mode panel over a range several
// timeSpan long and not a multiple of timeChunk, so accumulators are
// spilled and reloaded between chunks and partials start at every span
// edge.
func TestTimeModeChunkSeam(t *testing.T) {
	dims := []int{30, 50, 20}
	x := randomSlice(9, dims, 2*timeSpan+3*timeChunk+17)
	if x.NNZ() <= 2*timeSpan {
		t.Fatalf("slice too small for the seam: %d nonzeros", x.NNZ())
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, k := range []int{9, 16} {
		factors := stridedFactors(3, dims, k, false)
		want := make([]float64, k)
		refTimeMode(want, x, factors)
		for _, workers := range []int{1, 2, 3} {
			got := make([]float64, k)
			c := NewComputerWithPool(workers, pool)
			c.TimeMode(got, x, factors)
			if j, ok := sameBits(got, want); !ok {
				t.Fatalf("K=%d W=%d TimeMode[%d] = %x, reference %x", k, workers, j,
					math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}
