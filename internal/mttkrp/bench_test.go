package mttkrp

import (
	"fmt"
	"path/filepath"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
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

// BenchmarkPlanCompile times recompiling every mode of the plan into a
// warm Plan's storage — the counting sort, its scatter of the values and
// the other modes' coordinates, the worker partition — and reports ns
// per nonzero per mode, the unit of perfmodel's PlanBuildNsPerNnz.
func BenchmarkPlanCompile(b *testing.B) {
	x := nipsSlice(b)
	c := NewComputer(0)
	plan := c.NewPlan(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CompilePlan(plan, x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()*x.NModes()), "ns/nnz")
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

// oocSlice is the slice the repo benchmark's ooc-stream workload is
// bound by — uniform 1200×900×700 with 500k nonzeros — written to a
// block file at the default block size (a 2×2×2 grid) and opened the
// way core receives it.
func oocSlice(b *testing.B) *ooc.BlockReader {
	b.Helper()
	dims := []int{1200, 900, 700}
	x, err := synth.GenerateSlice(synth.Config{
		Name:        "oocflat",
		Dists:       []synth.IndexDist{synth.Uniform{N: dims[0]}, synth.Uniform{N: dims[1]}, synth.Uniform{N: dims[2]}},
		NNZPerSlice: 500_000,
		T:           1,
		Seed:        31,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "slice.spblk")
	if err := ooc.WriteTensor(path, x, 0); err != nil {
		b.Fatal(err)
	}
	r, err := ooc.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkStreamMTTKRP times the streamed kernel per output mode on the
// ooc-stream slice (schedule compiled outside the timer, like the plan
// in BenchmarkPlanMTTKRP) and reports ns per nonzero: with no share
// (every block decoded and sorted each pass), with a share the
// permutations and some blocks fit, and with everything resident. The
// plan arm runs PlanMTTKRP on MaterializeBlocks of the same file: the
// in-memory kernel on the same nonzeros, the floor the streamed kernel
// is measured against.
func BenchmarkStreamMTTKRP(b *testing.B) {
	r := oocSlice(b)
	const k = 16
	factors := randomFactors(32, r.Dims(), k)
	x, err := sptensor.MaterializeBlocks(r)
	if err != nil {
		b.Fatal(err)
	}
	c := NewComputer(0)
	plan := c.NewPlan(x)
	for mode, d := range x.Dims {
		out := dense.NewMatrix(d, k)
		b.Run(fmt.Sprintf("K=%d/plan/mode=%d", k, mode), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.PlanMTTKRP(out, plan, factors, mode)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
		})
	}
	for _, share := range []int64{0, 12 << 20, 32 << 20} {
		sk := NewStreamKernel(NewComputer(0))
		sk.SetShare(share)
		if err := sk.Begin(r); err != nil {
			b.Fatal(err)
		}
		for mode, d := range r.Dims() {
			out := dense.NewMatrix(d, k)
			b.Run(fmt.Sprintf("K=%d/resident=%.0f%%/mode=%d", k, 100*sk.Residency().Share(), mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := sk.MTTKRP(out, r, factors, mode); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.NNZ()), "ns/nnz")
			})
		}
	}
}
