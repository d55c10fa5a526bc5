package synth

import (
	"fmt"
	"math"
)

// IndexDist draws nonzero coordinates for one (non-streaming) mode of a
// time slice. Sample receives the time step so distributions can drift
// over the stream (the mechanism behind clustered modes).
type IndexDist interface {
	// Dim returns the mode length.
	Dim() int
	// Sample returns one index in [0, Dim()) for time step t.
	Sample(r *RNG, t int) int32
	// Describe returns a short human-readable summary.
	Describe() string
}

// Uniform draws indices uniformly over the mode — a mode whose activity
// is spread evenly (paper Fig. 1, modes 1 and 3).
type Uniform struct{ N int }

// Dim implements IndexDist.
func (u Uniform) Dim() int { return u.N }

// Sample implements IndexDist.
func (u Uniform) Sample(r *RNG, _ int) int32 { return int32(r.Intn(u.N)) }

// Describe implements IndexDist.
func (u Uniform) Describe() string { return fmt.Sprintf("uniform(%d)", u.N) }

// Zipf draws indices from a Zipf(s) law over [0, N): a popularity-skewed
// mode such as terms or tags, where a few rows receive most updates (the
// distribution that stresses lock contention in the baseline MTTKRP).
// Only NewZipf builds one: Sample reads tables that a literal lacks.
type Zipf struct {
	N int
	S float64 // exponent, > 0
	// cdf[i] is P(index ≤ i); guide[m] is the first i with cdf[i] ≥ m/N,
	// or N−1 when there is none, for m ∈ [0, N]. Both built by NewZipf.
	cdf   []float64
	guide []int32
}

// NewZipf builds a Zipf sampler: its CDF and a guide table of N+1 cut
// points into it, so that a draw starts at the guide entry of its bucket
// and steps O(1) entries on average.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("synth: Zipf with non-positive dim")
	}
	if s <= 0 {
		panic("synth: Zipf exponent must be positive")
	}
	z := &Zipf{N: n, S: s}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	inv := 1 / sum
	for i := range z.cdf {
		z.cdf[i] *= inv
	}
	z.buildGuide()
	return z
}

// buildGuide fills z.guide from z.cdf.
func (z *Zipf) buildGuide() {
	n := len(z.cdf)
	z.guide = make([]int32, n+1)
	i := 0
	for m := range z.guide {
		b := float64(m) / float64(n)
		for i < n-1 && z.cdf[i] < b {
			i++
		}
		z.guide[m] = int32(i)
	}
}

// Dim implements IndexDist.
func (z *Zipf) Dim() int { return z.N }

// Sample implements IndexDist.
func (z *Zipf) Sample(r *RNG, _ int) int32 { return z.index(r.Float64()) }

// index returns the first index whose CDF entry is at least u ∈ [0, 1),
// or N−1 when there is none: the index a binary search of the CDF finds.
// It starts at the guide entry of u's bucket ⌊u·N⌋ and steps down, then
// up; it steps down only when rounding put u in a bucket whose boundary
// lies above u.
func (z *Zipf) index(u float64) int32 {
	if z.guide == nil {
		panic("synth: Zipf sampled without NewZipf")
	}
	cdf := z.cdf
	i := int(z.guide[int(u*float64(len(cdf)))])
	for i > 0 && cdf[i-1] >= u {
		i--
	}
	for i < len(cdf)-1 && cdf[i] < u {
		i++
	}
	return int32(i)
}

// Describe implements IndexDist.
func (z *Zipf) Describe() string { return fmt.Sprintf("zipf(%d, s=%.2f)", z.N, z.S) }

// Clustered models the Flickr image mode (paper §V-A, Fig. 1): at each
// time step only a small, mostly-contiguous window of the index range is
// active ("images are never tagged again after the initial tag and
// upload"). The window advances with t so that over the full stream the
// whole range is covered, but any single slice touches roughly
// Window + Revisit·Window rows out of N — the ~99% zero-row regime where
// spCP-stream wins big.
type Clustered struct {
	N       int
	Window  int     // size of the fresh-index window per slice
	Drift   int     // how far the window advances per time step
	Revisit float64 // probability a draw revisits an older index instead
}

// Dim implements IndexDist.
func (c Clustered) Dim() int { return c.N }

// Sample implements IndexDist.
func (c Clustered) Sample(r *RNG, t int) int32 {
	base := (t * c.Drift) % c.N
	if c.Revisit > 0 && base > 0 && r.Float64() < c.Revisit {
		// Revisit an older index (long-tail re-tagging of an old image).
		return int32(r.Intn(base))
	}
	off := r.Intn(c.Window)
	return int32((base + off) % c.N)
}

// Describe implements IndexDist.
func (c Clustered) Describe() string {
	return fmt.Sprintf("clustered(%d, window=%d, drift=%d, revisit=%.2f)", c.N, c.Window, c.Drift, c.Revisit)
}

// Fixed always returns index 0; used for degenerate single-row modes in
// tests.
type Fixed struct{}

// Dim implements IndexDist.
func (Fixed) Dim() int { return 1 }

// Sample implements IndexDist.
func (Fixed) Sample(*RNG, int) int32 { return 0 }

// Describe implements IndexDist.
func (Fixed) Describe() string { return "fixed(1)" }
