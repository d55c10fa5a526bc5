package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// TestApplyZTransformMatchesDotProducts pins the lazy z side's one
// transform — Version.Row through a logged suffix product, and the flush
// that writes it back — to the form it replaced, one dot product per
// column down T, bit for bit, at ranks on both sides of the kernel's
// column block, for several worker counts; rows stored current are
// copied untouched.
func TestApplyZTransformMatchesDotProducts(t *testing.T) {
	const rows = 37
	for _, k := range []int{1, 3, 4, 6, 16, 17} {
		for _, workers := range []int{1, 2, 5} {
			d, err := NewDecomposer([]int{rows, 9}, Options{Rank: k, Algorithm: SpCPStream, Workers: workers, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rng := synth.NewRNG(uint64(100*k + workers))
			v := d.cur
			v.growLog(1)
			a := v.a[0]
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
			}
			tr := v.log[0][0]
			for i := range tr.Data {
				tr.Data[i] = rng.NormFloat64()
			}
			v.log[1][0].CopyFrom(dense.Identity(k))
			nz := []int32{0, 5, 6, 20, rows - 1}
			for _, i := range nz {
				v.age[0][i] = 1
			}
			v.lag = 1

			want := a.Clone()
			tmp := make([]float64, k)
			for i := 0; i < rows; i++ {
				if v.age[0][i] == 1 {
					continue
				}
				row := want.Row(i)
				for j := 0; j < k; j++ {
					sum := 0.0
					for p := 0; p < k; p++ {
						sum += row[p] * tr.Data[p*tr.Stride+j]
					}
					tmp[j] = sum
				}
				copy(row, tmp)
			}
			label := fmt.Sprintf("k=%d workers=%d", k, workers)
			sameMatrixBits(t, label+" Factor", d.Factor(0), want)
			got := dense.NewMatrix(rows, k)
			for i := 0; i < rows; i++ {
				v.Row(0, i, got.Row(i))
			}
			sameMatrixBits(t, label+" Row", got, want)
			d.flush(v, v)
			sameMatrixBits(t, label+" flushed in place", v.a[0], want)
			if v.lag != 0 || v.age[0][rows-1] != 0 {
				t.Fatalf("%s: flush left lag %d, age %d", label, v.lag, v.age[0][rows-1])
			}
		}
	}
}

// lazyStreams are the shapes the lazy z side is checked on over
// 3·zLogLen slices: flickr's (a long clustered mode, 1–2 % of rows
// touched per slice) and the serving workload's (the same tensor cut
// into small windows).
func lazyStreams(t *testing.T) []struct {
	name string
	s    *sptensor.Stream
	mu   float64
} {
	t.Helper()
	gen := func(nnz int) *sptensor.Stream {
		cfg, err := synth.Preset("flickr", 0.02)
		if err != nil {
			t.Fatal(err)
		}
		cfg.T, cfg.NNZPerSlice = 3*zLogLen, nnz
		s, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []struct {
		name string
		s    *sptensor.Stream
		mu   float64
	}{{"flickr", gen(400), 0}, {"serve", gen(80), 0.95}}
}

// TestLazyZMatchesEagerOracle runs every lazy stream beside the eager
// oracle — the same decomposer with its committed version flushed after
// every slice, which applies each slice's z-row transform as the slice
// ends — and holds every mode to 1e-12 relative Frobenius distance at
// every slice, through three flushes, with and without Normalize. The
// oracle itself reproduces the eager algorithm's pinned bits
// (TestEagerOracleKeepsEagerBits).
func TestLazyZMatchesEagerOracle(t *testing.T) {
	for _, st := range lazyStreams(t) {
		for _, normalize := range []bool{false, true} {
			opt := Options{Rank: 6, Algorithm: SpCPStream, Mu: st.mu, Normalize: normalize, Seed: 3, Workers: 2, MaxIters: 5}
			lazy, err := NewDecomposer(st.s.Dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := NewDecomposer(st.s.Dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			flushes := 0
			for ti, x := range st.s.Slices {
				lagBefore := lazy.cur.lag
				if _, err := lazy.ProcessSlice(x); err != nil {
					t.Fatal(err)
				}
				if _, err := eager.ProcessSlice(x); err != nil {
					t.Fatal(err)
				}
				eager.flushCommitted()
				if lazy.cur.lag < lagBefore {
					flushes++
				}
				for m := range st.s.Dims {
					want := eager.Factor(m)
					if rel := math.Sqrt(dense.FrobNorm2Diff(lazy.Factor(m), want) / dense.FrobNorm2(want)); !(rel <= 1e-12) {
						t.Fatalf("%s normalize=%v slice %d mode %d: lazy is %.3g from the eager oracle", st.name, normalize, ti, m, rel)
					}
				}
			}
			if flushes != 3 {
				t.Errorf("%s normalize=%v: %d flushes in %d slices, want 3", st.name, normalize, flushes, len(st.s.Slices))
			}
		}
	}
}

// TestEagerOracleKeepsEagerBits: the oracle of TestLazyZMatchesEagerOracle
// is the eager algorithm exactly — flushed after every slice, the slice
// body reproduces the eager z side's bits, pinned or not. On the planted
// stream they are TestSliceBodyBits' SpCPStream pins; on the skewed one
// the lazy z side moved them.
func TestEagerOracleKeepsEagerBits(t *testing.T) {
	planted, skewed := testStream(t, 106, []int{30, 700, 40}, 9000, 3), skewedStream(t, 32)
	for _, tc := range []struct {
		name      string
		s         *sptensor.Stream
		normalize bool
		want      uint64
	}{
		{"planted/raw", planted, false, 0x72fecae8983d230c},
		{"planted/norm", planted, true, 0xfea676403e2625b2},
		{"skewed/raw", skewed, false, 0x4023f63491fec3f6},
		{"skewed/norm", skewed, true, 0x4485c17fad078275},
	} {
		for _, pinned := range []bool{false, true} {
			opt := Options{Rank: 5, Algorithm: SpCPStream, Normalize: tc.normalize, Seed: 4, Workers: 2}
			if got := sliceBodyHash(t, tc.s, opt, false, pinned, true); got != tc.want {
				t.Errorf("%s pinned=%v: eager hash %#x, want %#x", tc.name, pinned, got, tc.want)
			}
		}
	}
}

// TestZRowsReadCount counts the rows the z side brings current: exactly
// Σₙ|nzₙ| on a slice that does not flush, whatever the mode lengths, and
// Σₙ Iₙ on one that does. The same nonzeros run at I₀ = 10³ and 10⁵.
func TestZRowsReadCount(t *testing.T) {
	small := testStream(t, 77, []int{1000, 50, 40}, 300, zLogLen+3)
	big := &sptensor.Stream{Dims: []int{100000, 50, 40}}
	for _, x := range small.Slices {
		y := *x
		y.Dims = big.Dims
		big.Slices = append(big.Slices, &y)
	}
	var counts [2][]int
	for r, s := range []*sptensor.Stream{small, big} {
		d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: SpCPStream, Seed: 2, Workers: 2, MaxIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, dim := range s.Dims {
			total += dim
		}
		for ti, x := range s.Slices {
			before := d.zRowsRead
			if _, err := d.ProcessSlice(x); err != nil {
				t.Fatal(err)
			}
			got, nz := d.zRowsRead-before, 0
			for _, set := range d.cur.nz {
				nz += len(set)
			}
			want := nz
			if ti == zLogLen-1 {
				want = total
			}
			if got != want {
				t.Errorf("I₀=%d slice %d: %d rows brought current, want %d", s.Dims[0], ti, got, want)
			}
			counts[r] = append(counts[r], got)
		}
	}
	for ti := range counts[0] {
		if ti != zLogLen-1 && counts[0][ti] != counts[1][ti] {
			t.Errorf("slice %d: %d rows at I₀=10³, %d at 10⁵", ti, counts[0][ti], counts[1][ti])
		}
	}
}

// TestHealthCheckLazyZ: the health check reads only what a slice wrote,
// yet still fails with ErrDiverged when a z row the slice never touched
// is pushed past 1e154 by its logged transform — its squared norm, and
// so diag(C_z), overflows — and when a suffix product is non-finite.
// Either way the guarded path's rollback restores the pre-slice state.
func TestHealthCheckLazyZ(t *testing.T) {
	s := skewedStream(t, 51)
	for _, fault := range []string{"overflowed z row", "non-finite suffix product"} {
		d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: SpCPStream, Seed: 6, Workers: 2,
			Resilience: &resilience.Config{Policy: resilience.Abort}})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range s.Slices[:3] {
			if _, err := d.ProcessSlice(x); err != nil {
				t.Fatal(err)
			}
		}
		want := d.snapshotFactors()
		d.takeSnapshot()
		res, err := d.runSlice(context.Background(), sliceData{x: s.Slices[3]})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.healthCheck(&res); err != nil {
			t.Fatalf("%s: the clean slice failed its health check: %v", fault, err)
		}
		v := d.cur
		const m = 1
		i := v.zRow(m)
		if i < 0 {
			t.Fatal("no z row of mode 1 lags the log")
		}
		p := v.log[m][v.age[m][i]]
		switch fault {
		case "overflowed z row":
			row := v.Row(m, i, make([]float64, d.k))
			scale := 1e160 / math.Sqrt(dense.Dot(row, row))
			dense.Scale(p, scale, p)
			if v.Row(m, i, row); math.Sqrt(dense.Dot(row, row)) < 1e154 {
				t.Fatalf("z row norm %g, want past 1e154", math.Sqrt(dense.Dot(row, row)))
			}
			// C_z as the slice would have finished with it: the Gram of
			// the rows brought current, all but the nz rows.
			inNZ := make(map[int32]bool)
			for _, j := range v.wrote[m] {
				inNZ[j] = true
			}
			var z [][]float64
			for j := 0; j < d.dims[m]; j++ {
				if !inNZ[int32(j)] {
					z = append(z, v.Row(m, j, make([]float64, d.k)))
				}
			}
			cz := dense.NewMatrix(d.k, d.k)
			dense.Gram(cz, dense.FromRows(z))
			if !math.IsInf(cz.At(0, 0), 1) && !math.IsInf(cz.At(1, 1), 1) {
				t.Fatalf("diag(C_z) = %g, %g: did not overflow", cz.At(0, 0), cz.At(1, 1))
			}
			d.sp.czCur[m].CopyFrom(cz)
		case "non-finite suffix product":
			p.Data[1] = math.NaN()
		}
		if err := d.healthCheck(&res); !errors.Is(err, resilience.ErrDiverged) {
			t.Fatalf("%s: health check returned %v, want ErrDiverged", fault, err)
		}
		d.rollback()
		d.releaseSnapshot()
		got := d.snapshotFactors()
		for n := range want {
			sameMatrixBits(t, fmt.Sprintf("%s: rolled-back factor %d", fault, n), got[n], want[n])
		}
	}
}

// TestHealthCheckIgnoresStaleCz: C_z is the slice's own, so a z = ∅
// slice reads none — not even one a rolled-back spCP slice left
// non-finite in the buffers — and the next z set recomputes it.
func TestHealthCheckIgnoresStaleCz(t *testing.T) {
	s := skewedStream(t, 52)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: SpCPStream, Seed: 6, Workers: 2,
		Resilience: &resilience.Config{Policy: resilience.Abort}})
	if err != nil {
		t.Fatal(err)
	}
	for ti, x := range s.Slices[:4] {
		switch ti {
		case 2:
			if err := d.SetAlgorithm(Optimized); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := d.SetAlgorithm(SpCPStream); err != nil {
				t.Fatal(err)
			}
		}
		d.sp.czCur[1].Data[0] = math.NaN() // what a failed spCP attempt may leave
		if _, err := d.ProcessSlice(x); err != nil {
			t.Fatalf("slice %d under %v: %v", ti, d.Algorithm(), err)
		}
	}
}

// zRow returns a row of mode n that is stored behind the log, or −1.
func (v *Version) zRow(n int) int {
	for i, e := range v.age[n] {
		if int(e) < v.lag {
			return i
		}
	}
	return -1
}

// snapshotFactors returns copies of every committed factor, brought
// current.
func (d *Decomposer) snapshotFactors() []*dense.Matrix {
	f := make([]*dense.Matrix, d.n)
	for m := range f {
		f[m] = d.Factor(m).Clone()
	}
	return f
}
