package core

import (
	"fmt"
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/synth"
)

// The row sweep replaced seven separate passes. Its contract: for fixed
// (M, sₜ, Q, Φ, A_{t−1}) the rows it writes and ψ are the separate passes'
// bit for bit; C, H and the two norms are the same sums regrouped by
// 256-row block, so they agree with the separate passes to rounding and
// with themselves, bit for bit, at every worker count.

// sweepCase is one set of sweep operands: M, A_{t−1}, a starting A, Q, sₜ,
// a column scale and an SPD Φ, all seeded.
type sweepCase struct {
	m, prev, a0, q, phi *dense.Matrix
	s, inv              []float64
}

func newSweepCase(seed uint64, rows, k int) sweepCase {
	r := synth.NewRNG(seed)
	fill := func(rows, cols int) *dense.Matrix {
		m := dense.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return m
	}
	c := sweepCase{m: fill(rows, k), prev: fill(rows, k), a0: fill(rows, k), q: fill(k, k), phi: dense.NewMatrix(k, k)}
	dense.Gram(c.phi, fill(3*k, k))
	dense.AddScaledIdentity(c.phi, c.phi, 0.5)
	for j := 0; j < k; j++ {
		c.s = append(c.s, r.NormFloat64())
		c.inv = append(c.inv, 0.5+r.Float64())
	}
	return c
}

// sweepDecomposer is a decomposer of rank k at the given worker count with
// c's sₜ and Φ in place.
func sweepDecomposer(t testing.TB, c sweepCase, workers int) *Decomposer {
	t.Helper()
	d, err := NewDecomposer([]int{3, 3}, Options{Rank: len(c.s), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	copy(d.s, c.s)
	if err := d.chol.Factorize(c.phi); err != nil {
		t.Fatal(err)
	}
	return d
}

// sweepShapes are the ways the slice body calls the sweep with z = ∅:
// the unconstrained update, the reductions alone after ADMM, Normalize's
// scaling walk. A z set passes the same operands with the norms off.
var sweepShapes = []struct {
	name string
	c, h bool // which of C and H the caller asks for
	args func(d *Decomposer, c sweepCase, a *dense.Matrix) coreArgs
}{
	{"solve", true, true, func(d *Decomposer, c sweepCase, a *dense.Matrix) coreArgs {
		return coreArgs{a: a, m: c.m, prev: c.prev, q: c.q, s: d.s, chol: &d.chol, psi: true, norms: true}
	}},
	{"reduce", true, true, func(d *Decomposer, c sweepCase, a *dense.Matrix) coreArgs {
		return coreArgs{a: a, m: c.m, prev: c.prev, psi: true, norms: true}
	}},
	{"scale", false, false, func(d *Decomposer, c sweepCase, a *dense.Matrix) coreArgs {
		return coreArgs{a: a, m: c.m, prev: c.prev, inv: c.inv, psi: true, norms: true}
	}},
}

// sweepResult is everything one sweep leaves behind.
type sweepResult struct {
	a, c, h      *dense.Matrix
	psi          []float64
	diff2, norm2 float64
}

func runSweep(t testing.TB, c sweepCase, workers, shape int) sweepResult {
	d := sweepDecomposer(t, c, workers)
	k, sh := d.k, sweepShapes[shape]
	res := sweepResult{a: c.a0.Clone(), c: dense.NewMatrix(k, k), h: dense.NewMatrix(k, k)}
	var cm, hm *dense.Matrix
	if sh.c {
		cm = res.c
		cm.Fill(math.NaN()) // the sweep overwrites
	}
	if sh.h {
		hm = res.h
		hm.Fill(math.NaN())
	}
	sw := sh.args(d, c, res.a)
	if sw.psi {
		d.fitPsi[0] = math.NaN()
	}
	res.diff2, res.norm2 = d.rowSweep(sw, cm, hm)
	res.psi = append(res.psi, d.fitPsi...)
	return res
}

// TestColDotsWorkerIdentity — since the sweep took colDots' place, the
// sweep's worker identity: the rows, C, H, both norms and ψ are the same
// bits at every worker count (and at every GOMAXPROCS CI runs it under),
// on row counts around a block edge and with fewer blocks than workers,
// for every shape the sweep is called in.
func TestColDotsWorkerIdentity(t *testing.T) {
	for _, k := range []int{1, 5, 16} {
		for _, rows := range []int{1, 2, 63, sweepBlock, sweepBlock + 1, 1000} {
			c := newSweepCase(uint64(100*k+rows), rows, k)
			for shape := range sweepShapes {
				want := runSweep(t, c, 1, shape)
				for _, workers := range []int{2, 3, 7} {
					name := fmt.Sprintf("%s K=%d rows=%d workers=%d", sweepShapes[shape].name, k, rows, workers)
					got := runSweep(t, c, workers, shape)
					sameMatrixBits(t, name+" A", got.a, want.a)
					sameMatrixBits(t, name+" C", got.c, want.c)
					sameMatrixBits(t, name+" H", got.h, want.h)
					sameMatrixBits(t, name+" ψ and norms",
						dense.FromRows([][]float64{append(got.psi, got.diff2, got.norm2)}),
						dense.FromRows([][]float64{append(want.psi, want.diff2, want.norm2)}))
				}
			}
		}
	}
}

// refColDots is the parent's colDots, loop for loop: one partial per 256
// rows in row order, the partials added in block order.
func refColDots(m, a *dense.Matrix) []float64 {
	k := m.Cols
	dst := make([]float64, k)
	for lo := 0; lo < m.Rows; lo += 256 {
		acc := make([]float64, k)
		for i := lo; i < min(lo+256, m.Rows); i++ {
			ra := a.Row(i)
			for j, v := range m.Row(i) {
				acc[j] += float64(v * ra[j])
			}
		}
		for j, v := range acc {
			dst[j] += v
		}
	}
	return dst
}

// relClose reports whether two equally shaped sums agree to tol of the
// largest entry.
func relClose(a, b *dense.Matrix, tol float64) bool {
	scale := 0.0
	for _, v := range b.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	return a.MaxAbsDiff(b) <= tol*scale
}

// TestRowSweepMatchesSeparatePasses pins the sweep to the passes it
// replaced. The rows are stageRHS + SolveRows' bit for bit and ψ is the
// parent's colDots' (the bit contract: given the same M, sₜ, Q, Φ and
// A_{t−1}, A and ψ do not move); C, H and the norms agree with
// Gram/MulAtB/FrobNorm2Diff/FrobNorm2 to 1e-13 — regrouped, not
// recomputed. Under Normalize the δ an iteration returns and the ψ it
// leaves are those of the scaled factors.
func TestRowSweepMatchesSeparatePasses(t *testing.T) {
	for _, k := range []int{5, 16} {
		for _, rows := range []int{63, 1000} {
			c := newSweepCase(uint64(7*k+rows), rows, k)
			for shape, sh := range sweepShapes {
				name := fmt.Sprintf("%s K=%d rows=%d", sh.name, k, rows)
				got := runSweep(t, c, 3, shape)
				d := sweepDecomposer(t, c, 3)
				want := c.a0.Clone()
				switch sh.name {
				case "solve":
					d.stageRHS(want, c.m, c.prev, c.q)
					d.chol.SolveRows(want)
				case "scale":
					dense.ScaleColumns(want, want, c.inv)
				}
				sameMatrixBits(t, name+" A", got.a, want)
				sameMatrixBits(t, name+" ψ", dense.FromRows([][]float64{got.psi}), dense.FromRows([][]float64{refColDots(c.m, want)}))
				if d2, n2 := dense.FrobNorm2Diff(want, c.prev), dense.FrobNorm2(want); math.Abs(got.diff2-d2) > 1e-13*d2 || math.Abs(got.norm2-n2) > 1e-13*n2 {
					t.Fatalf("%s: norms %g, %g; separate passes %g, %g", name, got.diff2, got.norm2, d2, n2)
				}
				if sh.name == "scale" {
					continue
				}
				wc, wh := dense.NewMatrix(k, k), dense.NewMatrix(k, k)
				dense.Gram(wc, want)
				dense.MulAtB(wh, c.prev, want)
				if !relClose(got.c, wc, 1e-13) || !relClose(got.h, wh, 1e-13) {
					t.Fatalf("%s: C off Gram by %g, H off MulAtB by %g", name, got.c.MaxAbsDiff(wc), got.h.MaxAbsDiff(wh))
				}
			}
		}
	}

	dims := []int{300, 41, 57}
	stream := testStream(t, 61, dims, 2500, 2)
	d, err := NewDecomposer(dims, Options{Rank: 6, Workers: 3, Seed: 4, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(stream.Slices[0]); err != nil {
		t.Fatal(err)
	}
	run, err := d.beginSlice(sliceData{x: stream.Slices[1]})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 2; it++ {
		delta, err := d.iterateSlice(run)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for n := range dims {
			want += math.Sqrt(dense.FrobNorm2Diff(run.a[n], run.prev[n]) / dense.FrobNorm2(run.a[n]))
			if n2 := dense.FrobNorm2(run.a[n]); math.Abs(n2-float64(d.k)) > 1e-9 {
				t.Fatalf("iteration %d: ‖A⁽%d⁾‖² = %g after Normalize, want %d", it, n, n2, d.k)
			}
		}
		if math.Abs(delta-want) > 1e-12*want {
			t.Fatalf("iteration %d: δ = %.17g, on the scaled factors %.17g", it, delta, want)
		}
		last := len(dims) - 1
		sameMatrixBits(t, "ψ under Normalize", dense.FromRows([][]float64{d.fitPsi}), dense.FromRows([][]float64{refColDots(d.modes[last].psi, run.a[last])}))
	}
}

// TestRowUpdateMatchesParentFormula pins "A does not move": handed the
// same sₜ and the same C and H, an inner iteration's factors are bit for
// bit those of the update the sweep (and stageRHS before it) replaced —
// ScaleColumns(Ψ), Ψ += A_{t−1}·Q row by row, then A = Ψ·Φ⁻¹ out of
// place. C and H are read off the finished rows by the sweep with its
// stage+solve half off, on both sides the same block-keyed sums: the
// parent's per-worker grouping of them is what moved.
func TestRowUpdateMatchesParentFormula(t *testing.T) {
	dims := []int{300, 41, 57}
	stream := testStream(t, 61, dims, 2500, 2)
	opt := Options{Rank: 6, Algorithm: Optimized, Workers: 3, Seed: 4}
	var ds [2]*Decomposer
	var runs [2]*sliceRun
	for i := range ds {
		d, err := NewDecomposer(dims, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ProcessSlice(stream.Slices[0]); err != nil {
			t.Fatal(err)
		}
		if runs[i], err = d.beginSlice(sliceData{x: stream.Slices[1]}); err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	if _, err := ds[0].iterateSlice(runs[0]); err != nil {
		t.Fatal(err)
	}
	d, run := ds[1], runs[1]
	phi, q := d.scratch1, d.scratch2
	for n := range dims {
		d.buildPhi(phi, n)
		if err := d.factorize(phi); err != nil {
			t.Fatal(err)
		}
		psi := d.modes[n].psi
		if err := d.mttkrpMode(psi, run.fac, n); err != nil {
			t.Fatal(err)
		}
		dense.ScaleColumns(psi, psi, d.s)
		d.buildQ(q, n)
		for i := 0; i < psi.Rows; i++ {
			dense.AddMulRow(psi.Row(i), run.prev[n].Row(i), q)
		}
		d.chol.SolveRowsInto(run.a[n], psi)
		d.rowSweep(coreArgs{a: run.a[n], prev: run.prev[n]}, d.modes[n].c, d.modes[n].h)
		run.fac[n] = run.a[n]
		sameMatrixBits(t, fmt.Sprintf("factor %d", n), runs[0].a[n], run.a[n])
		sameMatrixBits(t, fmt.Sprintf("C %d", n), ds[0].modes[n].c, d.modes[n].c)
		sameMatrixBits(t, fmt.Sprintf("H %d", n), ds[0].modes[n].h, d.modes[n].h)
	}
}

// BenchmarkRowSweep states the accounting behind the sweep, Table I
// style, on the two shapes the benchmark workloads give it at K = 16 —
// the longest nips mode and the shortest uber mode — as the last factor
// mode (ψ on): ns/row and the words each row moves through memory. The
// sweep reads M and A_{t−1} and writes A (3K) plus its share of the block
// partials, written once and read once by the merge; the seven passes it
// replaced — stage (3K), solve (2K), Gram (K), MulAtB (2K), ‖A−A_{t−1}‖²
// (2K), ‖A‖² (K), colDots (2K) — move 13K, measured beside it.
func BenchmarkRowSweep(b *testing.B) {
	const k = 16
	for _, rows := range []int{14000, 24} {
		c := newSweepCase(9, rows, k)
		for _, workers := range []int{1, 2} {
			d := sweepDecomposer(b, c, workers)
			a, cm, hm := c.a0.Clone(), dense.NewMatrix(k, k), dense.NewMatrix(k, k)
			report := func(b *testing.B, words float64) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
				b.ReportMetric(words, "words/row")
			}
			b.Run(fmt.Sprintf("%dx%d/W=%d/sweep", rows, k, workers), func(b *testing.B) {
				sw := sweepShapes[0].args(d, c, a)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.rowSweep(sw, cm, hm)
				}
				nb := (rows + sweepBlock - 1) / sweepBlock
				report(b, 3*k+2*float64(nb*(2*k*k+k+2))/float64(rows))
			})
			b.Run(fmt.Sprintf("%dx%d/W=%d/sevenpass", rows, k, workers), func(b *testing.B) {
				var sink float64
				parts := make([]float64, workers)
				for i := 0; i < b.N; i++ {
					d.stageRHS(a, c.m, c.prev, c.q)
					d.pool.Do(rows, workers, nil, func(_ any, _ int, r parallel.Range) {
						d.chol.SolveRows(a.RowView(r.Lo, r.Hi))
					})
					dense.GramParallel(cm, a, workers)
					dense.MulAtBParallel(hm, c.prev, a, workers)
					d.pool.Do(rows, workers, nil, func(_ any, w int, r parallel.Range) {
						parts[w] = dense.FrobNorm2Diff(a.RowView(r.Lo, r.Hi), c.prev.RowView(r.Lo, r.Hi))
					})
					for _, v := range parts {
						sink += v
					}
					sink += dense.FrobNorm2(a)
					sink += refColDots(c.m, a)[0]
				}
				report(b, 13*k)
				_ = sink
			})
		}
	}
}
