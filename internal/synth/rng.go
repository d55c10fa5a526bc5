// Package synth generates synthetic streaming sparse tensors whose
// structural properties — mode lengths, nonzeros per time slice, and the
// per-mode nonzero-index distributions (uniform, Zipf-skewed, or
// clustered/bursty à la the Flickr image mode) — match the four FROSTT
// datasets the paper evaluates (Table II), scaled to fit in laptop
// memory. Values can be drawn from a planted low-rank model so that the
// decomposition has meaningful structure to recover, or from a simple
// positive count model.
//
// All randomness flows through a deterministic SplitMix64 generator
// seeded explicitly, so every dataset is exactly reproducible.
package synth

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. It is
// intentionally minimal — the generators only need uniform integers,
// uniform floats and Gaussians (the Zipf sampler in dist.go draws one
// uniform float).
type RNG struct {
	state uint64
	// spare is the second Gaussian of the last Box-Muller pair; ok says
	// it has not been returned yet.
	spare float64
	ok    bool
}

// NewRNG creates a generator from a seed. Distinct seeds yield
// independent-looking streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 uniformly random bits (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics when n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("synth: Intn with non-positive bound")
	}
	// Lemire-style rejection to avoid modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// NormFloat64 returns a standard normal variate (Box-Muller with spare).
func (r *RNG) NormFloat64() float64 {
	if r.ok {
		r.ok = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.ok = true
		return u * f
	}
}

// LogNormal returns exp(mu + sigma·N(0,1)) — the positive count model
// used for non-planted values.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Split derives an independent RNG for a sub-task (e.g. one time slice)
// so slices can be generated in any order with identical results.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}
