package admm

import (
	"fmt"
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/parallel"
)

// The projections as they were before the mask form: data-dependent
// branches. Kept as the reference the table test and the reference
// solver below compare against.

type branchNonNeg struct{ NonNeg }

func (branchNonNeg) Project(block *dense.Matrix, _ []float64, _ float64) {
	for i := 0; i < block.Rows; i++ {
		row := block.Row(i)
		for j, v := range row {
			if v < 0 {
				row[j] = 0
			}
		}
	}
}

type branchL1 struct{ L1 }

func (c branchL1) Project(block *dense.Matrix, _ []float64, rho float64) {
	thr := c.Lambda / rho
	for i := 0; i < block.Rows; i++ {
		row := block.Row(i)
		for j, v := range row {
			switch {
			case v > thr:
				row[j] = v - thr
			case v < -thr:
				row[j] = v + thr
			default:
				row[j] = 0
			}
		}
	}
}

type branchNonNegMaxColNorm struct{ NonNegMaxColNorm }

func (c branchNonNegMaxColNorm) Project(block *dense.Matrix, colNorms2 []float64, _ float64) {
	for i := 0; i < block.Rows; i++ {
		row := block.Row(i)
		for j, v := range row {
			if v < 0 {
				row[j] = 0
				continue
			}
			if n2 := colNorms2[j]; n2 > c.R*c.R {
				row[j] = v * c.R / math.Sqrt(n2)
			}
		}
	}
}

// referenceBlockedFused is the BlockedFused body as it stood before the
// panel solve: one SolveVec per row between the fused element loop and
// the A ← Ã − U loop, residuals accumulated in place. It also returns
// the last iteration's reduction (column norms² then pr, pn, dr, dn).
func referenceBlockedFused(opt Options, a, phi, psi *dense.Matrix, con Constraint) (Stats, []float64, error) {
	opt = opt.withDefaults()
	rows, k := a.Rows, a.Cols
	u, atld, a0 := dense.NewMatrix(rows, k), dense.NewMatrix(rows, k), dense.NewMatrix(rows, k)

	p := rho(phi)
	chol, err := dense.FactorRidge(phi, p)
	if err != nil {
		return Stats{}, nil, err
	}

	bs := opt.blockRows(k)
	nBlocks := (rows + bs - 1) / bs
	blockOf := func(b int) (int, int) {
		lo := b * bs
		hi := lo + bs
		if hi > rows {
			hi = rows
		}
		return lo, hi
	}

	colNorms2 := parallel.ReduceVec(nBlocks, opt.Workers, k, func(_ int, r parallel.Range, acc []float64) {
		for b := r.Lo; b < r.Hi; b++ {
			lo, hi := blockOf(b)
			for i := lo; i < hi; i++ {
				ra, r0, rp, rt := a.Row(i), a0.Row(i), psi.Row(i), atld.Row(i)
				for j := range rt {
					x := ra[j]
					r0[j] = x
					rt[j] = rp[j] + p*x
				}
				chol.SolveVec(rt)
				for j := range ra {
					v := rt[j] // U = 0, so A = Ã
					ra[j] = v
					acc[j] += v * v
				}
			}
		}
	})

	var stats Stats
	var red []float64
	for iter := 1; iter <= opt.MaxIters; iter++ {
		stats.Iters = iter
		red = parallel.ReduceVec(nBlocks, opt.Workers, k+4, func(_ int, r parallel.Range, acc []float64) {
			errAcc := acc[k:]
			for b := r.Lo; b < r.Hi; b++ {
				lo, hi := blockOf(b)
				block := a.RowView(lo, hi)
				con.Project(block, colNorms2, p)
				for i := lo; i < hi; i++ {
					ra, ru, rp, rt, r0 := a.Row(i), u.Row(i), psi.Row(i), atld.Row(i), a0.Row(i)
					for j := range ra {
						x := ra[j]         // projected A
						y := x - rt[j]     // A − Ã
						di := ru[j] + y    // new dual value
						ru[j] = di         // update
						errAcc[0] += y * y // ‖A−Ã‖²
						errAcc[1] += x * x // ‖A‖²
						pd := x - r0[j]
						errAcc[2] += pd * pd // ‖A−A₀‖²
						errAcc[3] += di * di // ‖U‖²
						r0[j] = x            // init for next iteration
						rt[j] = rp[j] + p*(x+di)
					}
					chol.SolveVec(rt)
					for j := range ra {
						v := rt[j] - ru[j] // A ← Ã − U (fused with col norm)
						ra[j] = v
						acc[j] += v * v
					}
				}
			}
		})
		colNorms2 = red[:k]
		pr, pn, dr, dn := red[k], red[k+1], red[k+2], red[k+3]
		if relConverged(pr, pn, opt.Tol) && relConverged(dr, dn, opt.Tol) {
			stats.Converged = true
			break
		}
	}
	parallel.For(nBlocks, opt.Workers, func(_ int, r parallel.Range) {
		for b := r.Lo; b < r.Hi; b++ {
			lo, hi := blockOf(b)
			con.Project(a.RowView(lo, hi), colNorms2, p)
		}
	})
	return stats, red, nil
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBlockedFusedBitIdenticalToPerRowBody runs the panel-solve
// BlockedFused against the per-row reference for every constraint and
// worker count, on shapes where neither the block nor the panel size
// divides the rows, and truncated at every iteration count up to the
// converged one so the whole residual sequence is compared, not only
// the last entry.
func TestBlockedFusedBitIdenticalToPerRowBody(t *testing.T) {
	type pair struct{ now, ref Constraint }
	cons := []pair{
		{NonNeg{}, branchNonNeg{}},
		{L1{Lambda: 0.1}, branchL1{L1{Lambda: 0.1}}},
		{NonNegMaxColNorm{R: 3}, branchNonNegMaxColNorm{NonNegMaxColNorm{R: 3}}},
		{Unconstrained{}, Unconstrained{}},
	}
	shapes := []struct{ rows, k, blockRows, maxIters int }{
		{53, 5, 7, 40},   // 8 blocks of 7 = 4+3 rows, last block 4
		{1001, 16, 0, 8}, // auto block: 409, 409, 183
		{3, 4, 0, 40},    // less than one panel
	}
	for _, sh := range shapes {
		_, phi, psi := randomProblem(uint64(7*sh.rows), sh.rows, sh.k)
		dense.Scale(psi, 20, psi) // column norms over the cap
		warm := dense.NewMatrix(sh.rows, sh.k)
		for i := range warm.Data {
			warm.Data[i] = float64(i%13) / 13
		}
		for _, c := range cons {
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s rows=%d workers=%d", c.now.Name(), sh.rows, workers)
				opt := Options{Tol: 1e-6, MaxIters: sh.maxIters, Workers: workers, BlockRows: sh.blockRows}
				full, _, err := referenceBlockedFused(opt, warm.Clone(), phi, psi, c.ref)
				if err != nil {
					t.Fatal(err)
				}
				s := NewSolver(opt) // one solver for all truncations: workspace reuse
				for m := 1; m <= full.Iters; m++ {
					opt.MaxIters = m
					s.SetMaxIters(m)
					want := warm.Clone()
					wantSt, wantRed, err := referenceBlockedFused(opt, want, phi, psi, c.ref)
					if err != nil {
						t.Fatal(err)
					}
					got := warm.Clone()
					gotSt, err := s.BlockedFused(got, phi, psi, c.now)
					if err != nil {
						t.Fatal(err)
					}
					if gotSt != wantSt {
						t.Fatalf("%s MaxIters=%d: stats %+v want %+v", name, m, gotSt, wantSt)
					}
					if i := sameBits(s.red[:sh.k+4], wantRed); i >= 0 {
						t.Fatalf("%s MaxIters=%d: reduction entry %d = %v want %v", name, m, i, s.red[i], wantRed[i])
					}
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("%s MaxIters=%d: A[%d] = %v want %v", name, m, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestProjectionsMatchBranchForm pins the mask-form projections to the
// branches they replaced on every class of float64, signed zeros and
// NaN included, bit for bit.
func TestProjectionsMatchBranchForm(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	vals := []float64{
		negZero, 0, inf, -inf, nan, -nan,
		1, -1, 0.5, -0.5, 0.25, -0.25, 2, -2, 1e-320, -1e-320, math.MaxFloat64, -math.MaxFloat64,
	}
	norms := []float64{0, 1, 8.999, 9, 9.001, 100, inf, nan, negZero}
	type pair struct{ now, ref Constraint }
	var cons []pair
	cons = append(cons, pair{NonNeg{}, branchNonNeg{}})
	for _, lambda := range []float64{0, 0.5, -0.5, inf, nan} {
		cons = append(cons, pair{L1{Lambda: lambda}, branchL1{L1{Lambda: lambda}}})
	}
	for _, r := range []float64{3, 0, -3, inf, nan} {
		cons = append(cons, pair{NonNegMaxColNorm{R: r}, branchNonNegMaxColNorm{NonNegMaxColNorm{R: r}}})
	}
	for _, c := range cons {
		for _, rho := range []float64{1, 0.5, inf} {
			// One row per value; every column carries a different norm.
			got := dense.NewMatrix(len(vals), len(norms))
			for i, v := range vals {
				for j := range norms {
					got.Set(i, j, v)
				}
			}
			want := got.Clone()
			c.now.Project(got, norms, rho)
			c.ref.Project(want, norms, rho)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("%s %+v rho=%v: value %v, col norm² %v: got %v (%#x) want %v (%#x)",
					c.now.Name(), c.now, rho, vals[i/len(norms)], norms[i%len(norms)],
					got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestBlockedFusedSteadyStateAllocs alternates one solver between two
// row counts, the way core shares it across factor modes: once the
// workspace has grown to the larger shape, no call allocates.
func TestBlockedFusedSteadyStateAllocs(t *testing.T) {
	const k = 8
	s := NewSolver(Options{MaxIters: 3, Tol: 1e-30, Workers: 2, BlockRows: 16})
	type problem struct{ a, warm, phi, psi *dense.Matrix }
	var ps []problem
	for _, rows := range []int{100, 37} {
		_, phi, psi := randomProblem(uint64(rows), rows, k)
		ps = append(ps, problem{dense.NewMatrix(rows, k), dense.NewMatrix(rows, k), phi, psi})
	}
	con := Constraint(NonNegMaxColNorm{R: 3})
	solve := func() {
		for _, p := range ps {
			p.a.CopyFrom(p.warm)
			if _, err := s.BlockedFused(p.a, p.phi, p.psi, con); err != nil {
				t.Fatal(err)
			}
		}
	}
	solve() // grow the workspace and the pool's arenas
	if n := testing.AllocsPerRun(20, solve); n != 0 {
		t.Fatalf("steady-state BlockedFused allocates %v times per pair of solves", n)
	}
}

// BenchmarkBlockedFused times BF-ADMM at the shape of the benchmark's
// ADMM-bound workload (the 1700-row mode at K = 16) for exactly 50
// iterations, and reports ns per row-iteration.
func BenchmarkBlockedFused(b *testing.B) {
	const rows, k, iters = 1700, 16, 50
	_, phi, psi := randomProblem(3, rows, k)
	warm := dense.NewMatrix(rows, k)
	a := dense.NewMatrix(rows, k)
	s := NewSolver(Options{MaxIters: iters, Tol: 1e-300})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CopyFrom(warm)
		st, err := s.BlockedFused(a, phi, psi, NonNeg{})
		if err != nil || st.Iters != iters {
			b.Fatalf("iters %d err %v", st.Iters, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows/iters, "ns/row-iter")
}
