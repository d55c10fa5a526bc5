package sim

import (
	"spstream/internal/perfmodel"
	"spstream/internal/trace"
)

// AlgKind selects the end-to-end algorithm being modeled.
type AlgKind int

const (
	// AlgBaseline is unoptimized non-constrained CP-stream.
	AlgBaseline AlgKind = iota
	// AlgOptimized is CP-stream with Hybrid Lock MTTKRP.
	AlgOptimized
	// AlgSpCP is spCP-stream.
	AlgSpCP
)

// String names the algorithm kind.
func (a AlgKind) String() string {
	switch a {
	case AlgBaseline:
		return "baseline"
	case AlgOptimized:
		return "optimized"
	default:
		return "spcp-stream"
	}
}

// Breakdown is the predicted per-iteration time per Fig. 8 phase, in
// seconds.
type Breakdown [trace.NumPhases]float64

// Total sums the phases.
func (b Breakdown) Total() float64 {
	t := 0.0
	for _, v := range b {
		t += v
	}
	return t
}

// denseMatTime returns the roofline time of a dense rows×K-by-K×K style
// kernel with the given flops-per-element multiplier and number of
// full-matrix traffic passes, plus loop overhead.
func (mo Model) denseMatTime(rows, k, p int, flopsPerElem, passes float64) float64 {
	p = mo.clampThreads(p)
	elems := float64(rows) * float64(k)
	flops := elems * flopsPerElem
	bytes := elems * 8 * passes
	footprint := int64(rows) * int64(k) * 8 * int64(passes)
	t := mo.memTime(flops, bytes, footprint, p)
	return t + elems*mo.P.GramNsPerElem*1e-9/float64(p) + mo.barrier(p)
}

// IterBreakdown predicts one inner iteration of the non-constrained
// algorithms, with per-slice work (remap, sₜ update, post gather /
// scatter / z-transform) amortized over itersPerSlice.
func (mo Model) IterBreakdown(alg AlgKind, s perfmodel.SliceProfile, k, p, itersPerSlice int) Breakdown {
	if itersPerSlice < 1 {
		itersPerSlice = 1
	}
	p = mo.clampThreads(p)
	var b Breakdown
	n := len(s.Modes)
	kk := float64(k)
	amort := float64(itersPerSlice)

	switch alg {
	case AlgSpCP:
		// MTTKRP over gathered nz rows, plus the per-iteration
		// streaming-mode (sₜ) update via thread-local reduction.
		b[trace.MTTKRP] = mo.MTTKRPTime(MTTKRPRowSparse, s, k, p) +
			mo.TimeModeUpdateTime(s, k, p, false)
		// Historical shrinks to K×K Hadamards/products (Eq. 14) plus
		// the |nz|×K hist add.
		b[trace.Historical] = mo.denseMatTime(s.TotalNZRows(), k, p, 4*kk, 4) +
			float64(8*n)*kk*kk*kk*mo.P.KKFlopNs*1e-9
		// Gram updates (C_nz) over nz rows only.
		b[trace.Gram] = mo.denseMatTime(s.TotalNZRows(), k, p, 2*kk, 1.5)
		// Φ build + Cholesky + explicit inverse: K³ work.
		b[trace.Inverse] = float64(n) * (kk*kk*kk + 6*kk*kk) * mo.P.KKFlopNs * 1e-9
		// Row solves over nz rows.
		b[trace.Update] = mo.denseMatTime(s.TotalNZRows(), k, p, 2*kk, 2.5)
		// Trace-based convergence: O(N·K).
		b[trace.Error] = float64(n) * kk * mo.P.GramNsPerElem * 1e-9
		// Pre: remap + incremental C_z + the sₜ warm start, once per
		// slice.
		pre := float64(s.NNZ)*mo.P.RemapNsPerNnz*1e-9 +
			mo.denseMatTime(s.TotalNZRows(), k, p, kk, 2) +
			mo.TimeModeUpdateTime(s, k, p, false)
		b[trace.Pre] = pre / amort
		// Post: z-row transform (the one full-I×K² pass) + scatter.
		post := mo.denseMatTime(s.TotalDim()-s.TotalNZRows(), k, p, 2*kk, 2) +
			mo.denseMatTime(s.TotalNZRows(), k, p, 1, 2)
		b[trace.Post] = post / amort
	default:
		kind := MTTKRPLock
		locked := true
		if alg == AlgOptimized {
			kind = MTTKRPHybrid
			locked = false
		}
		b[trace.MTTKRP] = mo.MTTKRPTime(kind, s, k, p) +
			mo.TimeModeUpdateTime(s, k, p, locked)
		// Historical: the H⁽ᵛ⁾ = Aᵀₜ₋₁A cross-Grams plus the full Iₙ×K
		// by K×K product A⁽ⁿ⁾ₜ₋₁·Q per mode.
		b[trace.Historical] = mo.denseMatTime(s.TotalDim(), k, p, 4*kk, 5)
		// Gram: the C⁽ⁿ⁾ refresh over full factors.
		b[trace.Gram] = mo.denseMatTime(s.TotalDim(), k, p, 2*kk, 1.5)
		// Φ build + Cholesky.
		b[trace.Inverse] = float64(n) * (kk*kk*kk/3 + 4*kk*kk) * mo.P.KKFlopNs * 1e-9
		// Row solves over full factors.
		b[trace.Update] = mo.denseMatTime(s.TotalDim(), k, p, 2*kk, 2.5)
		// Explicit Frobenius-norm convergence over full factors.
		b[trace.Error] = mo.denseMatTime(s.TotalDim(), k, p, 3, 2)
		// Pre: snapshot copies + the sₜ warm start.
		pre := mo.denseMatTime(s.TotalDim(), k, p, 1, 2) +
			mo.TimeModeUpdateTime(s, k, p, locked)
		b[trace.Pre] = pre / amort
		// Post: temporal bookkeeping only.
		b[trace.Post] = kk * kk * mo.P.GramNsPerElem * 1e-9
	}
	b[trace.Misc] = mo.barrier(p)
	return b
}

// IterTime is the summed IterBreakdown.
func (mo Model) IterTime(alg AlgKind, s perfmodel.SliceProfile, k, p, itersPerSlice int) float64 {
	return mo.IterBreakdown(alg, s, k, p, itersPerSlice).Total()
}

// ConstrainedIterTime predicts one inner iteration of constrained
// CP-stream: the MTTKRP/Historical machinery plus admmIters ADMM
// iterations per mode on the full Iₙ×K factors.
func (mo Model) ConstrainedIterTime(alg AlgKind, s perfmodel.SliceProfile, k, p, itersPerSlice, admmIters int) float64 {
	if admmIters < 1 {
		admmIters = 1
	}
	b := mo.IterBreakdown(alg, s, k, p, itersPerSlice)
	// Replace the direct solve with ADMM.
	b[trace.Update] = 0
	kind := ADMMBaseline
	if alg != AlgBaseline {
		kind = ADMMBlockedFused
	}
	admm := 0.0
	for _, m := range s.Modes {
		admm += float64(admmIters) * mo.ADMMIterTime(kind, m.Dim, k, p)
	}
	return b.Total() + admm
}
