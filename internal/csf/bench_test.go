package csf

import (
	"fmt"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/synth"
)

// BenchmarkEngineMTTKRP times the tiled CSF kernel alone (trees built
// outside the timer, on the sorted-base path core uses for coalesced
// slices) on the synth.Preset("nips", 1) slice and reports ns per
// nonzero for each output mode, at two full register panels (K = 16)
// and at two panels plus a four-column tail (K = 20).
func BenchmarkEngineMTTKRP(b *testing.B) {
	cfg, err := synth.Preset("nips", 1)
	if err != nil {
		b.Fatal(err)
	}
	x, err := synth.GenerateSlice(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	x.Coalesce()
	eng := NewEngine(0)
	eng.Begin(x)
	eng.SetSortedBase()
	for mode := range x.Dims {
		eng.Build(mode)
	}
	for _, k := range []int{16, 20} {
		factors := randomFactors(32, x.Dims, k)
		for mode, d := range x.Dims {
			out := dense.NewMatrix(d, k)
			b.Run(fmt.Sprintf("K=%d/mode=%d", k, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng.MTTKRP(out, factors, mode)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
			})
		}
	}
}
