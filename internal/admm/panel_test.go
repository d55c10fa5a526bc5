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

// branchRows calls f on every element v = x − u (v = x when u is nil),
// writing its result to dst.
func branchRows(dst, x, u *dense.Matrix, f func(v float64, j int) float64) {
	for i := 0; i < dst.Rows; i++ {
		rd, rx := dst.Row(i), x.Row(i)
		for j, v := range rx {
			if u != nil {
				v = rx[j] - u.Row(i)[j]
			}
			rd[j] = f(v, j)
		}
	}
}

type branchNonNeg struct{ NonNeg }

func (branchNonNeg) Project(dst, x, u *dense.Matrix, _ []float64, _ float64) {
	branchRows(dst, x, u, func(v float64, _ int) float64 {
		if v < 0 {
			return 0
		}
		return v
	})
}

type branchL1 struct{ L1 }

func (c branchL1) Project(dst, x, u *dense.Matrix, _ []float64, rho float64) {
	thr := c.Lambda / rho
	branchRows(dst, x, u, func(v float64, _ int) float64 {
		switch {
		case v > thr:
			return v - thr
		case v < -thr:
			return v + thr
		default:
			return 0
		}
	})
}

type branchNonNegMaxColNorm struct{ NonNegMaxColNorm }

func (c branchNonNegMaxColNorm) Project(dst, x, u *dense.Matrix, colNorms2 []float64, _ float64) {
	branchRows(dst, x, u, func(v float64, j int) float64 {
		if v < 0 {
			return 0
		}
		if n2 := colNorms2[j]; n2 > c.R*c.R {
			return v * c.R / math.Sqrt(n2)
		}
		return v
	})
}

// blockGroups is BlockedFused's grouping of the reductions: one partial
// per bfBlock-row block.
func blockGroups(rows int) (bs int, groups []parallel.Range) {
	for b := 0; b*bfBlock < rows; b++ {
		groups = append(groups, parallel.Range{Lo: b, Hi: b + 1})
	}
	return bfBlock, groups
}

// workerGroups is the grouping BlockedFused had while it reduced per
// worker: blocks of ⌊256 KiB / (40·K)⌋ rows (at least 16) split into the
// pool's static worker ranges, one partial per worker.
func workerGroups(rows, k, workers int) (bs int, groups []parallel.Range) {
	bs = max(16, 256*1024/(5*8*k))
	return bs, parallel.Partition((rows+bs-1)/bs, workers)
}

// referenceBlockedFused is the BlockedFused body as it stood before the
// panel solve and the fused projection: one SolveVec per row between the
// fused element loop and the A ← Ã − U loop, the projection of every
// constraint at the start of the next iteration and once at exit. It runs
// serially: the reductions are summed over the bs-row blocks of each
// group from zero, in row order, and the group sums are added in group
// order. It also returns the last iteration's reduction (column norms²
// then pr, pn, dr, dn).
func referenceBlockedFused(opt Options, bs int, groups []parallel.Range, a, phi, psi *dense.Matrix, con Constraint) (Stats, []float64, error) {
	opt = opt.withDefaults()
	rows, k := a.Rows, a.Cols
	u, atld, a0 := dense.NewMatrix(rows, k), dense.NewMatrix(rows, k), dense.NewMatrix(rows, k)

	p := rho(phi)
	chol, err := dense.FactorRidge(phi, p)
	if err != nil {
		return Stats{}, nil, err
	}

	blockOf := func(b int) (int, int) {
		return b * bs, min((b+1)*bs, rows)
	}
	reduce := func(dim int, body func(r parallel.Range, acc []float64)) []float64 {
		total := make([]float64, dim)
		for _, g := range groups {
			acc := make([]float64, dim)
			body(g, acc)
			for i, v := range acc {
				total[i] += v
			}
		}
		return total
	}

	colNorms2 := reduce(k, func(r parallel.Range, acc []float64) {
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
		red = reduce(k+4, func(r parallel.Range, acc []float64) {
			errAcc := acc[k:]
			for b := r.Lo; b < r.Hi; b++ {
				lo, hi := blockOf(b)
				block := a.RowView(lo, hi)
				con.Project(block, block, nil, colNorms2, p)
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
	con.Project(a, a, nil, colNorms2, p)
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

// TestBlockedFusedBitIdenticalToPerRowBody runs the panel-solve, fused-
// projection BlockedFused against the per-row reference summing by
// bfBlock-row block, for every constraint and worker count, on shapes
// where neither the block nor the panel size divides the rows, and
// truncated at every iteration count up to the converged one so the
// whole residual sequence is compared, not only the last entry.
func TestBlockedFusedBitIdenticalToPerRowBody(t *testing.T) {
	type pair struct{ now, ref Constraint }
	cons := []pair{
		{NonNeg{}, branchNonNeg{}},
		{L1{Lambda: 0.1}, branchL1{L1{Lambda: 0.1}}},
		{NonNegMaxColNorm{R: 3}, branchNonNegMaxColNorm{NonNegMaxColNorm{R: 3}}},
		{Unconstrained{}, Unconstrained{}},
	}
	shapes := []struct{ rows, k, maxIters int }{
		{150, 5, 40},  // blocks of 64, 64, 22
		{1001, 16, 8}, // 15 blocks of 64 and one of 41
		{3, 4, 40},    // less than one panel
	}
	for _, sh := range shapes {
		_, phi, psi := randomProblem(uint64(7*sh.rows), sh.rows, sh.k)
		dense.Scale(psi, 20, psi) // column norms over the cap
		warm := dense.NewMatrix(sh.rows, sh.k)
		for i := range warm.Data {
			warm.Data[i] = float64(i%13) / 13
		}
		bs, groups := blockGroups(sh.rows)
		for _, c := range cons {
			// The merged reduction holds column norms² only when the
			// constraint reads them; the reference always has them.
			skip := sh.k
			if c.now.NeedsColNorms() {
				skip = 0
			}
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s rows=%d workers=%d", c.now.Name(), sh.rows, workers)
				opt := Options{Tol: 1e-6, MaxIters: sh.maxIters, Workers: workers}
				full, _, err := referenceBlockedFused(opt, bs, groups, warm.Clone(), phi, psi, c.ref)
				if err != nil {
					t.Fatal(err)
				}
				s := NewSolver(opt) // one solver for all truncations: workspace reuse
				for m := 1; m <= full.Iters; m++ {
					opt.MaxIters = m
					s.SetMaxIters(m)
					want := warm.Clone()
					wantSt, wantRed, err := referenceBlockedFused(opt, bs, groups, want, phi, psi, c.ref)
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
					if i := sameBits(s.total, wantRed[skip:]); i >= 0 {
						t.Fatalf("%s MaxIters=%d: reduction entry %d = %v want %v", name, m, i, s.total, wantRed[skip:])
					}
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("%s MaxIters=%d: A[%d] = %v want %v", name, m, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestBlockedFusedWorkerIdentity checks that A, Stats and the merged
// reduction — the residuals, and NonNegMaxColNorm's column norms² — do
// not depend on the worker count, on row counts below, at and just past
// one block and over many blocks. NonNegMaxColNorm's column norms were
// summed per worker before they were summed per block; its A stays
// within 1e-12 of that grouping's.
func TestBlockedFusedWorkerIdentity(t *testing.T) {
	const k = 16
	for _, rows := range []int{3, 53, 64, 65, 1001} {
		_, phi, psi := randomProblem(uint64(rows), rows, k)
		dense.Scale(psi, 20, psi) // column norms over the cap
		for _, con := range []Constraint{NonNeg{}, L1{Lambda: 0.1}, NonNegMaxColNorm{R: 3}, Unconstrained{}} {
			opt := Options{Tol: 1e-6, MaxIters: 40}
			var wantA *dense.Matrix
			var wantSt Stats
			var wantRed []float64
			for _, workers := range []int{1, 2, 3, 7} {
				name := fmt.Sprintf("%s rows=%d workers=%d", con.Name(), rows, workers)
				opt.Workers = workers
				s := NewSolver(opt)
				a := dense.NewMatrix(rows, k)
				st, err := s.BlockedFused(a, phi, psi, con)
				if err != nil {
					t.Fatal(err)
				}
				if wantA == nil {
					wantA, wantSt, wantRed = a, st, append([]float64(nil), s.total...)
					continue
				}
				if st != wantSt {
					t.Fatalf("%s: stats %+v, %+v at one worker", name, st, wantSt)
				}
				if i := sameBits(s.total, wantRed); i >= 0 {
					t.Fatalf("%s: reduction %v, %v at one worker", name, s.total, wantRed)
				}
				if i := sameBits(a.Data, wantA.Data); i >= 0 {
					t.Fatalf("%s: A[%d] = %v, %v at one worker", name, i, a.Data[i], wantA.Data[i])
				}
			}
			if !con.NeedsColNorms() {
				continue
			}
			scale := 0.0
			for _, v := range wantA.Data {
				scale = max(scale, math.Abs(v))
			}
			for _, workers := range []int{1, 2} {
				bs, groups := workerGroups(rows, k, workers)
				old := dense.NewMatrix(rows, k)
				st, _, err := referenceBlockedFused(opt, bs, groups, old, phi, psi, con)
				if err != nil {
					t.Fatal(err)
				}
				if st != wantSt {
					t.Fatalf("rows=%d: stats %+v, %+v summed per worker (W=%d)", rows, wantSt, st, workers)
				}
				if d := old.MaxAbsDiff(wantA); d > 1e-12*scale {
					t.Fatalf("rows=%d: A moved %g (scale %g) from the per-worker sums (W=%d)", rows, d, scale, workers)
				}
			}
		}
	}
}

// TestProjectionsMatchBranchForm pins the mask-form projections to the
// branches they replaced on every class of float64, signed zeros and
// NaN included, bit for bit: in place on x, and out of place on x − u
// for a u drawn from the same classes.
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
	cons = append(cons, pair{NonNeg{}, branchNonNeg{}}, pair{Unconstrained{}, Unconstrained{}})
	for _, lambda := range []float64{0, 0.5, -0.5, inf, nan} {
		cons = append(cons, pair{L1{Lambda: lambda}, branchL1{L1{Lambda: lambda}}})
	}
	for _, r := range []float64{3, 0, -3, inf, nan} {
		cons = append(cons, pair{NonNegMaxColNorm{R: r}, branchNonNegMaxColNorm{NonNegMaxColNorm{R: r}}})
	}
	// One row per value; every column carries a different norm and,
	// with u, a different subtrahend.
	x := dense.NewMatrix(len(vals), len(norms))
	u := dense.NewMatrix(len(vals), len(norms))
	for i, v := range vals {
		for j := range norms {
			x.Set(i, j, v)
			u.Set(i, j, vals[(3*i+j)%len(vals)])
		}
	}
	for _, c := range cons {
		for _, rho := range []float64{1, 0.5, inf} {
			for _, withU := range []bool{false, true} {
				got, want := x.Clone(), x.Clone()
				if withU {
					got, want = dense.NewMatrix(x.Rows, x.Cols), dense.NewMatrix(x.Rows, x.Cols)
					c.now.Project(got, x, u, norms, rho)
					c.ref.Project(want, x, u, norms, rho)
				} else {
					c.now.Project(got, got, nil, norms, rho)
					c.ref.Project(want, want, nil, norms, rho)
				}
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("%s %+v rho=%v u=%v: x %v, u %v, col norm² %v: got %v (%#x) want %v (%#x)",
						c.now.Name(), c.now, rho, withU, x.Data[i], u.Data[i], norms[i%len(norms)],
						got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
				}
			}
		}
	}
}

// TestBlockedFusedSteadyStateAllocs alternates one solver between two
// row counts, the way core shares it across factor modes, under every
// constraint: once the workspace has grown to the larger shape and the
// column-norm partials, no call allocates.
func TestBlockedFusedSteadyStateAllocs(t *testing.T) {
	const k = 8
	// No more workers than the default pool holds: beyond that a
	// dispatch takes the spawning fallback, which allocates by design.
	s := NewSolver(Options{MaxIters: 3, Tol: 1e-30, Workers: min(2, parallel.Default().Size())})
	type problem struct{ a, warm, phi, psi *dense.Matrix }
	var ps []problem
	for _, rows := range []int{150, 37} {
		_, phi, psi := randomProblem(uint64(rows), rows, k)
		ps = append(ps, problem{dense.NewMatrix(rows, k), dense.NewMatrix(rows, k), phi, psi})
	}
	cons := []Constraint{NonNeg{}, L1{Lambda: 0.1}, NonNegMaxColNorm{R: 3}, Unconstrained{}}
	solve := func() {
		for _, con := range cons {
			for _, p := range ps {
				p.a.CopyFrom(p.warm)
				if _, err := s.BlockedFused(p.a, p.phi, p.psi, con); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	solve() // grow the workspace and the pool's arenas
	if n := testing.AllocsPerRun(20, solve); n != 0 {
		t.Fatalf("steady-state BlockedFused allocates %v times per round of eight solves", n)
	}
}

// BenchmarkBlockedFused times BF-ADMM at the shapes of the benchmark's
// ADMM-bound workload (its 1100- and 1700-row modes at K = 16) for
// exactly 50 iterations, at one and two workers, under a row-local
// constraint and a column-norm one. It reports ns per row-iteration and
// the passes over each block's rows per iteration: the fused element
// loop, the solve and A ← Π(Ã − U) for a row-local constraint; for one
// that waits for the merged column norms, the projection, the fused
// loop, the solve, A ← Ã − U and the norms.
func BenchmarkBlockedFused(b *testing.B) {
	const k, iters = 16, 50
	for _, rows := range []int{1100, 1700} {
		_, phi, psi := randomProblem(3, rows, k)
		warm := dense.NewMatrix(rows, k)
		a := dense.NewMatrix(rows, k)
		for _, workers := range []int{1, 2} {
			for _, con := range []Constraint{NonNeg{}, NonNegMaxColNorm{R: 3}} {
				b.Run(fmt.Sprintf("rows=%d/W=%d/%s", rows, workers, con.Name()), func(b *testing.B) {
					s := NewSolver(Options{MaxIters: iters, Tol: 1e-300, Workers: workers})
					for i := 0; i < b.N; i++ {
						a.CopyFrom(warm)
						st, err := s.BlockedFused(a, phi, psi, con)
						if err != nil || st.Iters != iters {
							b.Fatalf("iters %d err %v", st.Iters, err)
						}
					}
					passes := 3.0
					if con.NeedsColNorms() {
						passes = 5
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows)/iters, "ns/row-iter")
					b.ReportMetric(passes, "passes/iter")
				})
			}
		}
	}
}
