// Benchmarks mirroring the paper's evaluation (one per table/figure).
// These measure the real Go kernels on the current host at a reduced
// dataset scale; cmd/paperbench reproduces the paper's 56-core scaling
// curves via the calibrated performance model, and EXPERIMENTS.md maps
// each benchmark to its table/figure.
//
// Run with: go test -bench=. -benchmem
package spstream_test

import (
	"sync"
	"testing"

	"spstream"
	"spstream/internal/admm"
	"spstream/internal/baselines"
	"spstream/internal/core"
	"spstream/internal/csf"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/roofline"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// benchScale keeps benchmark datasets small enough for CI-class
// machines while preserving the structural properties that drive the
// paper's results.
const benchScale = 0.1

var (
	benchMu      sync.Mutex
	benchStreams = map[string]*sptensor.Stream{}
)

func benchStream(b *testing.B, name string) *sptensor.Stream {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchStreams[name]; ok {
		return s
	}
	cfg, err := synth.Preset(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	s, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchStreams[name] = s
	return s
}

// sliceProcessor is what the end-to-end benchmarks drive: the runtime's
// Decomposer or the paper's unoptimized baseline.
type sliceProcessor interface {
	ProcessSlice(*sptensor.Tensor) (core.SliceResult, error)
	Breakdown() *spstream.Breakdown
}

// benchVariant is one column of the paper's comparison.
type benchVariant struct {
	name string
	new  func(dims []int, opt core.Options) (sliceProcessor, error)
}

func runtimeVariant(alg core.Algorithm) benchVariant {
	return benchVariant{alg.String(), func(dims []int, opt core.Options) (sliceProcessor, error) {
		opt.Algorithm = alg
		return core.NewDecomposer(dims, opt)
	}}
}

var (
	benchBaseline = benchVariant{"baseline", func(dims []int, opt core.Options) (sliceProcessor, error) {
		return spstream.NewCPStreamBaseline(dims, opt)
	}}
	benchExplicit = []benchVariant{benchBaseline, runtimeVariant(core.Optimized)}
	benchAll      = []benchVariant{benchBaseline, runtimeVariant(core.Optimized), runtimeVariant(core.SpCPStream)}
)

func benchFactors(dims []int, k int) []*dense.Matrix {
	r := synth.NewRNG(77)
	out := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		f := dense.NewMatrix(d, k)
		for i := range f.Data {
			f.Data[i] = r.Float64() + 0.1
		}
		out[m] = f
	}
	return out
}

// admmProblem builds a feasible constrained least-squares instance of
// the shape CP-stream hands to ADMM.
func admmProblem(rows, k int) (a, phi, psi *dense.Matrix) {
	r := synth.NewRNG(13)
	b := dense.NewMatrix(k+4, k)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	phi = dense.NewMatrix(k, k)
	dense.Gram(phi, b)
	dense.AddScaledIdentity(phi, phi, 1)
	a = dense.NewMatrix(rows, k)
	for i := range a.Data {
		a.Data[i] = r.Float64()
	}
	psi = dense.NewMatrix(rows, k)
	dense.MulAB(psi, a, phi)
	return a, phi, psi
}

// BenchmarkTable1ADMMCostModel exercises the analytical cost model of
// Table I (trivial compute; included so every table has a bench target
// and regressions in the model code are caught).
func BenchmarkTable1ADMMCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tot := roofline.ADMMBaselineTotal(100000, 16)
		fused := roofline.ADMMFusedTotal(100000, 16)
		if tot.Words() <= fused.Words() {
			b.Fatal("cost model inverted")
		}
	}
}

// BenchmarkTable2Generate measures synthetic dataset generation (the
// Table II substitution substrate).
func BenchmarkTable2Generate(b *testing.B) {
	for _, name := range []string{"uber", "nips"} {
		b.Run(name, func(b *testing.B) {
			cfg, err := synth.Preset(name, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := synth.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1Histogram measures the per-mode nonzero histogram used
// by Fig. 1.
func BenchmarkFig1Histogram(b *testing.B) {
	s := benchStream(b, "flickr")
	x := s.Slices[s.T()/2]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for mode := 0; mode < x.NModes(); mode++ {
			sptensor.Histogram(x, mode, 48)
		}
	}
}

// BenchmarkFig2ADMM compares the baseline and Blocked & Fused ADMM
// kernels (Fig. 2) on a NIPS-sized mode at ranks 16 and 32.
func BenchmarkFig2ADMM(b *testing.B) {
	for _, k := range []int{16, 32} {
		a0, phi, psi := admmProblem(14000/10, k)
		for _, kind := range []string{"baseline", "blockedfused"} {
			b.Run(kind+"/rank"+itoa(k), func(b *testing.B) {
				opt := admm.Options{Tol: 1e-30, MaxIters: 10}
				solve := admm.NewSolver(opt).BlockedFused
				if kind == "baseline" {
					solve = baselines.NewADMM(baselines.ADMMOptions{Options: opt}).Solve
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := solve(a0.Clone(), phi, psi, admm.NonNeg{})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig3Kernels measures both kernels across the three Fig. 3
// datasets at rank 16.
func BenchmarkFig3Kernels(b *testing.B) {
	for _, name := range []string{"patents", "nips", "uber"} {
		s := benchStream(b, name)
		x := s.Slices[s.T()/2]
		factors := benchFactors(s.Dims, 16)
		b.Run(name+"/mttkrp-lock", func(b *testing.B) {
			c := baselines.NewLockKernels(0)
			out := dense.NewMatrix(s.Dims[0], 16)
			for i := 0; i < b.N; i++ {
				c.Lock(out, x, factors, 0)
			}
		})
		b.Run(name+"/mttkrp-hybrid", func(b *testing.B) {
			c := baselines.NewLockKernels(0)
			out := dense.NewMatrix(s.Dims[0], 16)
			for i := 0; i < b.N; i++ {
				c.Hybrid(out, x, factors, 0)
			}
		})
	}
}

// BenchmarkFig4MTTKRP compares the Lock and Hybrid MTTKRP kernels plus
// the streaming-mode update across all modes (Fig. 4) on NIPS.
func BenchmarkFig4MTTKRP(b *testing.B) {
	s := benchStream(b, "nips")
	x := s.Slices[s.T()/2]
	for _, k := range []int{16, 128} {
		factors := benchFactors(s.Dims, k)
		b.Run("baseline/rank"+itoa(k), func(b *testing.B) {
			c := baselines.NewLockKernels(0)
			sv := make([]float64, k)
			outs := make([]*dense.Matrix, len(s.Dims))
			for m, d := range s.Dims {
				outs[m] = dense.NewMatrix(d, k)
			}
			for i := 0; i < b.N; i++ {
				for m := range s.Dims {
					c.Lock(outs[m], x, factors, m)
				}
				c.TimeModeLocked(sv, x, factors)
			}
		})
		b.Run("hybridlock/rank"+itoa(k), func(b *testing.B) {
			c, tm := baselines.NewLockKernels(0), mttkrp.NewComputer(0)
			sv := make([]float64, k)
			outs := make([]*dense.Matrix, len(s.Dims))
			for m, d := range s.Dims {
				outs[m] = dense.NewMatrix(d, k)
			}
			for i := 0; i < b.N; i++ {
				for m := range s.Dims {
					c.Hybrid(outs[m], x, factors, m)
				}
				tm.TimeMode(sv, x, factors)
			}
		})
		b.Run("rowsparse/rank"+itoa(k), func(b *testing.B) {
			var r mttkrp.Remapper
			rm := r.Begin(x)
			kern := mttkrp.NewKernel(mttkrp.NewComputer(0))
			kern.Compile(rm.X)
			gathered, outs := make([]*dense.Matrix, len(s.Dims)), make([]*dense.Matrix, len(s.Dims))
			for m := range s.Dims {
				gathered[m] = dense.NewMatrix(len(rm.NZ[m]), k)
				rm.GatherMode(gathered[m], factors[m], m)
				outs[m] = dense.NewMatrix(len(rm.NZ[m]), k)
			}
			for i := 0; i < b.N; i++ {
				for m := range s.Dims {
					if err := kern.MTTKRP(outs[m], gathered, m); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig5Constrained measures one constrained slice update with
// both kernel sets (Fig. 5) on NIPS at rank 16.
func BenchmarkFig5Constrained(b *testing.B) {
	s := benchStream(b, "nips")
	for _, alg := range benchExplicit {
		b.Run(alg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dec, err := alg.new(s.Dims, core.Options{
					Rank: 16, Constraint: admm.NonNeg{},
					Seed: 5, MaxIters: 3, ADMMMaxIters: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dec.ProcessSlice(s.Slices[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6NonConstrained measures one non-constrained slice update
// per algorithm (Fig. 6) on NIPS.
func BenchmarkFig6NonConstrained(b *testing.B) {
	benchNonConstrained(b, "nips", []int{16, 128})
}

// BenchmarkFig7Datasets is Fig. 7: the remaining datasets at rank 16.
func BenchmarkFig7Datasets(b *testing.B) {
	for _, name := range []string{"patents", "uber", "flickr"} {
		benchNonConstrained(b, name, []int{16})
	}
}

func benchNonConstrained(b *testing.B, name string, ranks []int) {
	s := benchStream(b, name)
	for _, k := range ranks {
		for _, alg := range benchAll {
			b.Run(name+"/"+alg.name+"/rank"+itoa(k), func(b *testing.B) {
				dec, err := alg.new(s.Dims, core.Options{
					Rank: k, Seed: 5, MaxIters: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := dec.ProcessSlice(s.Slices[i%s.T()]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8Breakdown runs the instrumented Flickr decomposition
// whose phase breakdown reproduces Fig. 8.
func BenchmarkFig8Breakdown(b *testing.B) {
	s := benchStream(b, "flickr")
	for _, alg := range benchAll {
		b.Run(alg.name, func(b *testing.B) {
			dec, err := alg.new(s.Dims, core.Options{
				Rank: 16, Seed: 5, MaxIters: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.ProcessSlice(s.Slices[i%s.T()]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if dec.Breakdown().Total() <= 0 {
				b.Fatal("no breakdown recorded")
			}
		})
	}
}

// BenchmarkPublicAPI measures the facade path end to end (quickstart
// shape).
func BenchmarkPublicAPI(b *testing.B) {
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dec, err := spstream.New(stream.Dims, spstream.Options{Rank: 8, Algorithm: spstream.SpCPStream, MaxIters: 3})
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < 3; t++ {
			if _, err := dec.ProcessSlice(stream.Slices[t]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationPlanMTTKRP compares the per-slice compiled plan
// kernel against the lock-based and hybrid kernels on the same slice
// (plan construction excluded, as it is amortized over the inner
// iterations; see BenchmarkPlanVsLockInnerIters in internal/mttkrp for
// the amortized comparison including build cost).
func BenchmarkAblationPlanMTTKRP(b *testing.B) {
	s := benchStream(b, "nips")
	x := s.Slices[s.T()/2]
	factors := benchFactors(s.Dims, 16)
	mode := 2 // the long, skewed word mode
	out := dense.NewMatrix(s.Dims[mode], 16)
	kern, lk := mttkrp.NewKernel(mttkrp.NewComputer(0)), baselines.NewLockKernels(0)
	kern.Compile(x)
	b.Run("lock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lk.Lock(out, x, factors, mode)
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lk.Hybrid(out, x, factors, mode)
		}
	})
	b.Run("plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kern.MTTKRP(out, factors, mode); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCSF compares the CSF (SPLATT-style, related work
// [15]) MTTKRP against the paper's COO kernels on the same slice —
// tree construction excluded, as CSF amortizes it across iterations.
func BenchmarkAblationCSF(b *testing.B) {
	s := benchStream(b, "nips")
	x := s.Slices[s.T()/2]
	factors := benchFactors(s.Dims, 16)
	eng := csf.NewEngine(0)
	eng.Begin(x)
	for m := range s.Dims {
		eng.Build(m)
	}
	c := baselines.NewLockKernels(0)
	outs := make([]*dense.Matrix, len(s.Dims))
	for m, d := range s.Dims {
		outs[m] = dense.NewMatrix(d, 16)
	}
	b.Run("coo-hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := range s.Dims {
				c.Hybrid(outs[m], x, factors, m)
			}
		}
	})
	b.Run("csf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := range s.Dims {
				eng.MTTKRP(outs[m], factors, m)
			}
		}
	})
	b.Run("csf-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Begin(x)
			for m := range s.Dims {
				eng.Build(m)
			}
		}
	})
}
