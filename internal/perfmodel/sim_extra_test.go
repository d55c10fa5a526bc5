// The tests in this file exercise the paper-figure simulator in the
// sub-package sim. They stay in this directory, as an external test
// package, so that their IDs (spstream/internal/perfmodel:TestX) are the
// ones the test floor has always listed.
package perfmodel_test

import (
	"testing"
	"testing/quick"

	"spstream/internal/perfmodel"
	"spstream/internal/perfmodel/sim"
)

// Kernel times must grow (weakly) with problem size.
func TestModelMonotonicity(t *testing.T) {
	mo := sim.PaperModel()
	// ADMM in I.
	prev := 0.0
	for _, i := range []int{1000, 10000, 100000, 1000000} {
		v := mo.ADMMIterTime(sim.ADMMBlockedFused, i, 16, 56)
		if v < prev {
			t.Fatalf("BF-ADMM time fell at I=%d", i)
		}
		prev = v
	}
	// MTTKRP in nnz.
	prev = 0.0
	for _, nnz := range []int{1000, 10000, 100000, 1000000} {
		s := perfmodel.SliceProfile{NNZ: nnz, Modes: []perfmodel.ModeProfile{
			{Dim: 5000, NZRows: min(nnz, 5000), TopRowFrac: 0.001},
			{Dim: 5000, NZRows: min(nnz, 5000), TopRowFrac: 0.001},
		}}
		v := mo.MTTKRPTime(sim.MTTKRPHybrid, s, 16, 56)
		if v < prev {
			t.Fatalf("HL-MTTKRP time fell at nnz=%d", nnz)
		}
		prev = v
	}
}

// Times must always be positive and finite for plausible inputs.
func TestModelAlwaysFinite(t *testing.T) {
	mo := sim.PaperModel()
	f := func(nnzRaw, dimRaw uint16, pRaw, kRaw uint8) bool {
		nnz := int(nnzRaw) + 1
		dim := int(dimRaw) + 1
		p := int(pRaw%64) + 1
		k := int(kRaw%128) + 1
		nz := nnz
		if nz > dim {
			nz = dim
		}
		s := perfmodel.SliceProfile{NNZ: nnz, Modes: []perfmodel.ModeProfile{
			{Dim: dim, NZRows: nz, TopRowFrac: 0.01},
			{Dim: dim, NZRows: nz, TopRowFrac: 0.5},
		}}
		for _, kind := range []sim.MTTKRPKind{sim.MTTKRPLock, sim.MTTKRPHybrid, sim.MTTKRPRowSparse} {
			v := mo.MTTKRPTime(kind, s, k, p)
			if !(v > 0) || v > 1e6 {
				return false
			}
		}
		for _, alg := range []sim.AlgKind{sim.AlgBaseline, sim.AlgOptimized, sim.AlgSpCP} {
			v := mo.IterTime(alg, s, k, p, 6)
			if !(v > 0) || v > 1e6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The locked single-row (streaming-mode) kernel must degrade with
// thread count while the thread-local one improves.
func TestTimeModeScalingDirections(t *testing.T) {
	mo := sim.PaperModel()
	s := perfmodel.SliceProfile{NNZ: 100000, Modes: []perfmodel.ModeProfile{
		{Dim: 3000, NZRows: 3000, TopRowFrac: 0.001},
		{Dim: 3000, NZRows: 3000, TopRowFrac: 0.001},
	}}
	if mo.TimeModeUpdateTime(s, 16, 56, true) <= mo.TimeModeUpdateTime(s, 16, 7, true) {
		t.Fatal("locked time-mode kernel should degrade from 7 to 56 threads")
	}
	if mo.TimeModeUpdateTime(s, 16, 56, false) >= mo.TimeModeUpdateTime(s, 16, 1, false) {
		t.Fatal("thread-local time-mode kernel should improve with threads")
	}
}

// The ADMM model's cache fast path: a tiny mode must be much cheaper
// per element than a huge one at the same thread count.
func TestCacheFastPath(t *testing.T) {
	mo := sim.PaperModel()
	// 40k rows × 16 × 8 B × 5 operands ≈ 26 MB: resident in the
	// kernel-usable share of the four sockets' LLC; 2M rows is not.
	// (Very small modes are excluded — there fixed fork/join costs
	// dominate the per-row figure.)
	resident := mo.ADMMIterTime(sim.ADMMBlockedFused, 40000, 16, 56) / 40000
	dram := mo.ADMMIterTime(sim.ADMMBlockedFused, 2000000, 16, 56) / 2000000
	if resident >= dram {
		t.Fatalf("cache-resident per-row cost %g should beat DRAM %g", resident, dram)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
