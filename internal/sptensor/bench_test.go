package sptensor_test

import (
	"testing"

	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// rawSlice draws cfg's nonzeros the way synth does before it coalesces
// them: arrival order, duplicates kept.
func rawSlice(cfg synth.Config) *sptensor.Tensor {
	r := synth.NewRNG(cfg.Seed)
	x := sptensor.New(cfg.Dims()...)
	x.Reserve(cfg.NNZPerSlice)
	coord := make([]int32, len(cfg.Dists))
	for e := 0; e < cfg.NNZPerSlice; e++ {
		for m, d := range cfg.Dists {
			coord[m] = d.Sample(r, 0)
		}
		x.Append(coord, r.LogNormal(0, 0.5))
	}
	return x
}

type coalesceInput struct {
	name string
	x    *sptensor.Tensor
}

// coalesceInputs are the slices the programs put in order: a serving
// window (2 000 events of the flickr preset at scale 0.25,
// 1000×100000×5000) unordered and already in order (the serve
// workloads' feed is cut from coalesced slices), a nips slice (150 k
// nonzeros, 2500×2900×14000) and the ooc-stream slice (500 k uniform
// nonzeros, 1200×900×700).
func coalesceInputs(b *testing.B) []coalesceInput {
	b.Helper()
	window, err := synth.Preset("flickr", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	window.NNZPerSlice = 2000
	nips, err := synth.Preset("nips", 1)
	if err != nil {
		b.Fatal(err)
	}
	ordered := rawSlice(window)
	ordered.Coalesce()
	return []coalesceInput{
		{"window-2k", rawSlice(window)},
		{"window-2k-sorted", ordered},
		{"nips-150k", rawSlice(nips)},
		{"ooc-500k", rawSlice(oocConfig)},
	}
}

// oocConfig is the ooc-stream workload's slice shape.
var oocConfig = synth.Config{
	Name:        "oocflat",
	Dists:       []synth.IndexDist{synth.Uniform{N: 1200}, synth.Uniform{N: 900}, synth.Uniform{N: 700}},
	NNZPerSlice: 500_000,
	T:           1,
	Seed:        31,
}

// BenchmarkCoalesce times Coalesce — the sort by mode 0 and the
// duplicate sum — on a fresh copy of each input (copied
// outside the timer) and reports ns per input nonzero and B/op.
func BenchmarkCoalesce(b *testing.B) {
	for _, in := range coalesceInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x := in.x.Clone()
				b.StartTimer()
				x.Coalesce()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.x.NNZ()), "ns/nnz")
		})
	}
}
