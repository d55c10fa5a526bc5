package mttkrp

import (
	"fmt"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// nipsSlice is the slice the repo benchmark's nips-uncon workload is
// bound by: synth.Preset("nips", 1), 2500×2900×14000 with 150k nonzeros,
// coalesced the way the streaming window hands it to core.
func nipsSlice(b *testing.B) *sptensor.Tensor {
	b.Helper()
	cfg, err := synth.Preset("nips", 1)
	if err != nil {
		b.Fatal(err)
	}
	x, err := synth.GenerateSlice(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	x.Coalesce()
	return x
}

// benchRanks covers two full panels (16) and two panels plus a
// four-column tail (20).
var benchRanks = []int{16, 20}

// BenchmarkPlanMTTKRP times the plan kernel alone (layout compiled
// outside the timer) per output mode and reports ns per nonzero.
func BenchmarkPlanMTTKRP(b *testing.B) {
	x := nipsSlice(b)
	c := NewComputer(0)
	plan := c.NewPlan(x)
	for _, k := range benchRanks {
		factors := randomFactors(32, x.Dims, k)
		for mode, d := range x.Dims {
			out := dense.NewMatrix(d, k)
			b.Run(fmt.Sprintf("K=%d/mode=%d", k, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.PlanMTTKRP(out, plan, factors, mode)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
			})
		}
	}
}

// BenchmarkTimeMode times the single-row streaming-mode MTTKRP over the
// same slice.
func BenchmarkTimeMode(b *testing.B) {
	x := nipsSlice(b)
	c := NewComputer(0)
	for _, k := range benchRanks {
		factors := randomFactors(32, x.Dims, k)
		dst := make([]float64, k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.TimeMode(dst, x, factors)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
		})
	}
}
