package synth

import (
	"fmt"
	"math"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// ValueModel selects how nonzero values are generated.
type ValueModel int

const (
	// ValueCounts draws positive log-normal "count" values with no
	// planted structure — the fastest generator, used by kernel
	// micro-benchmarks where only sparsity structure matters.
	ValueCounts ValueModel = iota
	// ValuePlanted evaluates a hidden low-rank CP model (plus Gaussian
	// noise) at each sampled coordinate. The coordinates are drawn
	// from the index distributions independently of that model, so the
	// observed slice is a random mask times a low-rank tensor, not a
	// low-rank tensor: the fit a decomposition reaches is of the order
	// of the slice's density (about half of it on the uber preset),
	// and there is no planted factor it converges to.
	ValuePlanted
)

// Config describes a synthetic streaming tensor.
type Config struct {
	Name        string
	Dists       []IndexDist // one per non-streaming mode, in mode order
	T           int         // number of time slices
	NNZPerSlice int         // nonzeros drawn per slice (before coalescing)
	Values      ValueModel
	PlantedRank int     // rank of the hidden model (ValuePlanted)
	NoiseStd    float64 // additive noise std dev (ValuePlanted)
	Seed        uint64
}

// Dims returns the slice mode lengths implied by the distributions.
func (c Config) Dims() []int {
	dims := make([]int, len(c.Dists))
	for m, d := range c.Dists {
		dims[m] = d.Dim()
	}
	return dims
}

func (c Config) validate() error {
	if len(c.Dists) < 2 {
		return fmt.Errorf("synth: need at least 2 non-streaming modes, got %d", len(c.Dists))
	}
	if c.T < 1 {
		return fmt.Errorf("synth: need at least 1 time slice")
	}
	if c.NNZPerSlice < 1 {
		return fmt.Errorf("synth: need at least 1 nonzero per slice")
	}
	if c.Values == ValuePlanted && c.PlantedRank < 1 {
		return fmt.Errorf("synth: planted values need PlantedRank ≥ 1")
	}
	return nil
}

// Generate materializes the full stream described by cfg. Slices are
// generated from per-slice RNGs derived from the seed, so the result is
// identical regardless of evaluation order.
func Generate(cfg Config) (*sptensor.Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	planted, sliceRNGs := deriveGenerators(cfg)
	dims := cfg.Dims()
	slices := make([]*sptensor.Tensor, cfg.T)
	for t := 0; t < cfg.T; t++ {
		slices[t] = generateSlice(cfg, planted, sliceRNGs[t], t, dims)
	}
	return &sptensor.Stream{Dims: dims, Slices: slices}, nil
}

// GenerateSlice materializes only time step t of the stream described
// by cfg. Because every slice has its own derived RNG, the result is
// bit-identical to Generate(cfg).Slices[t] at a fraction of the cost —
// useful when a workload profile needs one paper-scale slice.
func GenerateSlice(cfg Config, t int) (*sptensor.Tensor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if t < 0 || t >= cfg.T {
		return nil, fmt.Errorf("synth: slice %d out of range [0,%d)", t, cfg.T)
	}
	planted, sliceRNGs := deriveGenerators(cfg)
	return generateSlice(cfg, planted, sliceRNGs[t], t, cfg.Dims()), nil
}

// deriveGenerators builds the planted model (when configured) and the
// per-slice RNGs in the canonical derivation order.
func deriveGenerators(cfg Config) (*plantedModel, []*RNG) {
	root := NewRNG(cfg.Seed)
	var planted *plantedModel
	if cfg.Values == ValuePlanted {
		planted = newPlantedModel(root.Split(), cfg)
	}
	sliceRNGs := make([]*RNG, cfg.T)
	for t := range sliceRNGs {
		sliceRNGs[t] = root.Split()
	}
	return planted, sliceRNGs
}

func generateSlice(cfg Config, planted *plantedModel, r *RNG, t int, dims []int) *sptensor.Tensor {
	sl := sptensor.New(dims...)
	sl.Reserve(cfg.NNZPerSlice)
	coord := make([]int32, len(dims))
	var terms []float64
	if planted != nil {
		terms = make([]float64, cfg.PlantedRank)
	}
	for e := 0; e < cfg.NNZPerSlice; e++ {
		for m, d := range cfg.Dists {
			coord[m] = d.Sample(r, t)
		}
		var val float64
		if planted != nil {
			val = planted.value(terms, coord, t) + cfg.NoiseStd*r.NormFloat64()
		} else {
			val = r.LogNormal(0, 0.5)
		}
		sl.Append(coord, val)
	}
	sl.Coalesce()
	return sl
}

// plantedModel holds the hidden ground-truth CP factors.
type plantedModel struct {
	factors []*dense.Matrix // one In×R matrix per mode
	s       [][]float64     // s[t]: length-R temporal weights
}

func newPlantedModel(r *RNG, cfg Config) *plantedModel {
	rank := cfg.PlantedRank
	m := &plantedModel{}
	scale := 1 / math.Sqrt(float64(rank))
	for _, d := range cfg.Dists {
		f := dense.NewMatrix(d.Dim(), rank)
		for i := range f.Data {
			f.Data[i] = math.Abs(r.NormFloat64()) * scale
		}
		m.factors = append(m.factors, f)
	}
	// Temporal weights drift smoothly: sₜ = 0.9·sₜ₋₁ + 0.1·|N(0,1)|,
	// so consecutive slices share structure the way real streams do.
	m.s = make([][]float64, cfg.T)
	prev := make([]float64, rank)
	for k := range prev {
		prev[k] = math.Abs(r.NormFloat64()) + 0.5
	}
	for t := 0; t < cfg.T; t++ {
		cur := make([]float64, rank)
		for k := range cur {
			cur[k] = 0.9*prev[k] + 0.1*(math.Abs(r.NormFloat64())+0.5)
		}
		m.s[t] = cur
		prev = cur
	}
	return m
}

// value evaluates the planted model at a coordinate for time step t:
// Σₖ sₜ[k]·a⁽⁰⁾[k]·a⁽¹⁾[k]·…, each term multiplied left to right and
// summed in ascending k. Each mode's row is read once, multiplied into
// terms (R floats of scratch) in place.
func (m *plantedModel) value(terms []float64, coord []int32, t int) float64 {
	copy(terms, m.s[t])
	for mm, f := range m.factors {
		row := f.Row(int(coord[mm]))[:len(terms)]
		for k := range terms {
			terms[k] *= row[k]
		}
	}
	sum := 0.0
	for _, p := range terms {
		sum += p
	}
	return sum
}
