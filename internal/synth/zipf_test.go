package synth

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// searchCDF is the binary search Zipf.Sample ran before the guide table:
// the first i with cdf[i] ≥ u, or len(cdf)−1 when there is none.
func searchCDF(cdf []float64, u float64) int32 {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// guideProbes are the draws that sit on an edge of z's tables: 0 and the
// largest float64 below 1, every CDF entry and every bucket boundary m/N,
// each with its two neighbours; those outside [0, 1) are dropped.
func guideProbes(z *Zipf) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	edge := func(x float64) {
		us = append(us, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for _, c := range z.cdf {
		edge(c)
	}
	for m := 0; m <= len(z.cdf); m++ {
		edge(float64(m) / float64(len(z.cdf)))
	}
	kept := us[:0]
	for _, u := range us {
		if u >= 0 && u < 1 {
			kept = append(kept, u)
		}
	}
	return kept
}

func requireGuideMatchesSearch(t *testing.T, name string, z *Zipf, us []float64) {
	t.Helper()
	for _, u := range us {
		if got, want := z.index(u), searchCDF(z.cdf, u); got != want {
			t.Fatalf("%s: u = %v (%#x): index %d, search %d", name, u, math.Float64bits(u), got, want)
		}
	}
}

// TestZipfGuideMatchesSearch: the guide-table draw returns the binary
// search's index for every edge draw and for a million RNG draws through
// Sample itself, at the presets' exponents and mode lengths and at tiny N.
func TestZipfGuideMatchesSearch(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, n := range []int{1, 2, 3, 7, 2500, 2900, 14000} {
		for _, s := range []float64{0.6, 0.7, 0.75, 1.1} {
			name := fmt.Sprintf("N=%d s=%v", n, s)
			z := NewZipf(n, s)
			requireGuideMatchesSearch(t, name, z, guideProbes(z))
			r, ref := NewRNG(uint64(n)), NewRNG(uint64(n))
			for i := 0; i < draws; i++ {
				u := ref.Float64()
				if got, want := z.Sample(r, 0), searchCDF(z.cdf, u); got != want {
					t.Fatalf("%s: draw %d, u = %v: Sample %d, search %d", name, i, u, got, want)
				}
			}
		}
	}
	// A Zipf CDF entry almost never lies within an ulp of a bucket
	// boundary, so the draws above rarely start a bucket past their
	// index. Tables whose entries sit just below the boundaries m/N make
	// u·N round up into the next bucket, where the draw must step down.
	for _, n := range []int{3, 7, 10, 100, 2900} {
		z := &Zipf{N: n, cdf: make([]float64, n)}
		for i := range z.cdf {
			z.cdf[i] = math.Nextafter(float64(i+1)/float64(n), 0)
		}
		z.buildGuide()
		requireGuideMatchesSearch(t, fmt.Sprintf("below-boundary N=%d", n), z, guideProbes(z))
	}
}

// A Zipf literal has no tables: Sample says to use NewZipf rather than
// failing on an index.
func TestZipfLiteralPanics(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "NewZipf") {
			t.Fatalf("panic %q does not name NewZipf", msg)
		}
	}()
	z := &Zipf{N: 10, S: 0.7}
	z.Sample(NewRNG(1), 0)
}
