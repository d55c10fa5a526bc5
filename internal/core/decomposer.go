package core

import (
	"context"
	"fmt"
	"math"

	"spstream/internal/admm"
	"spstream/internal/csf"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/perfmodel"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
	"spstream/internal/trace"
)

// Decomposer consumes time slices one at a time and maintains the
// streaming CP factorization. It is not safe for concurrent use.
type Decomposer struct {
	opt  Options
	dims []int
	n    int // number of non-streaming modes
	k    int // rank

	// Factor state.
	a     []*dense.Matrix // current factors A⁽ⁿ⁾ (Iₙ×K)
	prevA []*dense.Matrix // A⁽ⁿ⁾ₜ₋₁ snapshot during a slice
	c     []*dense.Matrix // C⁽ⁿ⁾ = A⁽ⁿ⁾ᵀA⁽ⁿ⁾ (K×K)
	cPrev []*dense.Matrix // C⁽ⁿ⁾ₜ₋₁ (K×K)
	h     []*dense.Matrix // H⁽ⁿ⁾ = Aₜ₋₁ᵀA (K×K)
	g     *dense.Matrix   // temporal Gram G (K×K)
	s     []float64       // current sₜ
	sHist [][]float64     // all temporal rows (the S factor)
	t     int             // slices processed

	// spCP-stream state carried across slices, and the pooled remapper
	// that renumbers each of its slices into nz-row space.
	prevNZ   [][]int32       // nz sets of the previous slice
	cz       []*dense.Matrix // Gram of A's z-rows w.r.t. prevNZ
	remapper mttkrp.Remapper
	// spCP-stream Post scratch: the nz-row mask (all-false between
	// uses, see markNZ) and one K-vector per worker for the z-row
	// transform.
	isNZ []bool
	zTmp []float64

	// Kernels and workspaces.
	psi    []*dense.Matrix // Ψ workspace for the explicit algorithms
	sp     spcpBufs        // spCP-stream's per-slice matrices
	lastM  *dense.Matrix   // raw MTTKRP of a constrained last factor mode
	mt     *mttkrp.Computer
	solver *admm.Solver
	bd     trace.Breakdown
	rng    *synth.RNG
	pool   *parallel.Pool

	// MTTKRP kernel selection (see kernels.go): the pooled CSF engine
	// (created on first use), the cost-model selector, the pooled profiler
	// and the reusable slice profile it fills, and the per-mode kernel
	// table resolved at every slice begin.
	csfEng   *csf.Engine
	sel      perfmodel.Selector
	profiler perfmodel.Profiler
	prof     perfmodel.SliceProfile
	kernels  []perfmodel.MTTKRPKind

	// Out-of-core evaluation (see streamed.go): the pooled streaming
	// MTTKRP kernel (created on first blocked slice) and the evaluation
	// mode the selector picked for the most recent block slice.
	sk       *mttkrp.StreamKernel
	lastEval perfmodel.EvalMode

	// Scratch K×K matrices reused across iterations.
	muG, phiS, sPhi, scratch1, scratch2 *dense.Matrix

	// Reusable Cholesky factorization of the per-mode Φ (and the sₜ Φ).
	chol dense.Cholesky

	// Reusable column-scale buffer for normalization.
	colScale []float64

	// Rank-K vectors of the tracked fit (ψ and (⊛C)·s). ψ is also every
	// sₜ solve's right-hand side; psiFresh says it is the running slice's,
	// over the factors as they now are. sweepPart: rowSweep's block
	// partials, grow-only.
	fitPsi, fitTmp, sweepPart []float64
	psiFresh                  bool

	// Reusable argument block of the ctx-style pool bodies (sweep.go).
	pargs coreArgs

	// Resilience state (see resilient.go): recovery counters, the
	// last-good snapshot, and the slice attempt / inner iteration
	// counters reported to the fault-injection hook.
	stats        resilience.Stats
	snap         *stateSnapshot
	sliceAttempt int
	iterNo       int

	// commitHook, when set, observes every committed slice (see
	// SetCommitHook).
	commitHook func(SliceResult)
}

// SetCommitHook registers a callback invoked immediately after a slice
// commits — ProcessSliceContext returning nil, with the factor state
// advanced to include the slice. It never fires for failed, skipped,
// rolled-back, or cancelled slices, so a hook that snapshots the
// factors (the serving layer's snapshot publisher) can never observe
// state a later rollback will retract: by the time the hook runs, the
// slice's mutations are final. The hook runs on the goroutine driving
// the decomposer, while it is quiescent — reading factors, Fit, and T
// inside the hook is safe; retaining references past its return is not.
func (d *Decomposer) SetCommitHook(h func(SliceResult)) { d.commitHook = h }

// NewDecomposer creates a decomposer for slices with the given mode
// lengths. Factors are randomly initialized (non-negative uniform, so
// constrained runs start feasible).
func NewDecomposer(dims []int, opt Options) (*Decomposer, error) {
	opt = opt.WithDefaults()
	if err := opt.Validate(dims); err != nil {
		return nil, err
	}
	d := &Decomposer{
		opt:  opt,
		dims: append([]int(nil), dims...),
		n:    len(dims),
		k:    opt.Rank,
		mt:   mttkrp.NewComputer(opt.Workers),
		rng:  synth.NewRNG(opt.Seed),
		pool: parallel.Default(),
		sel:  perfmodel.NewSelector(opt.Workers),
	}
	d.solver = admm.NewSolver(admm.Options{
		Workers:  opt.Workers,
		Tol:      opt.ADMMTol,
		MaxIters: opt.ADMMMaxIters,
	})
	k := d.k
	for _, dim := range dims {
		f := dense.NewMatrix(dim, k)
		for i := range f.Data {
			f.Data[i] = d.rng.Float64() + 0.1 // positive, well away from 0
		}
		d.a = append(d.a, f)
		d.prevA = append(d.prevA, dense.NewMatrix(dim, k))
		d.c = append(d.c, dense.NewMatrix(k, k))
		d.cPrev = append(d.cPrev, dense.NewMatrix(k, k))
		d.h = append(d.h, dense.NewMatrix(k, k))
	}
	d.g = dense.NewMatrix(k, k)
	d.s = make([]float64, k)
	d.muG = dense.NewMatrix(k, k)
	d.phiS = dense.NewMatrix(k, k)
	d.sPhi = dense.NewMatrix(k, k)
	d.scratch1 = dense.NewMatrix(k, k)
	d.scratch2 = dense.NewMatrix(k, k)
	d.colScale = make([]float64, k)
	d.fitPsi = make([]float64, k)
	d.fitTmp = make([]float64, k)
	for range dims {
		d.cz = append(d.cz, dense.NewMatrix(k, k))
	}
	// Invariant: d.c always holds Gram(d.a) at slice boundaries.
	d.refreshGrams()
	return d, nil
}

// Dims returns the slice mode lengths.
func (d *Decomposer) Dims() []int { return d.dims }

// Rank returns the decomposition rank K.
func (d *Decomposer) Rank() int { return d.k }

// T returns the number of slices processed so far.
func (d *Decomposer) T() int { return d.t }

// Factor returns the current factor matrix for mode n (live storage; do
// not modify).
func (d *Decomposer) Factor(n int) *dense.Matrix { return d.a[n] }

// TemporalGram returns the temporal Gram matrix G (live storage).
func (d *Decomposer) TemporalGram() *dense.Matrix { return d.g }

// Temporal returns the accumulated temporal factor S as a T×K matrix.
func (d *Decomposer) Temporal() *dense.Matrix { return dense.FromRows(d.sHist) }

// LastS returns the most recent temporal row sₜ (live storage).
func (d *Decomposer) LastS() []float64 { return d.s }

// Breakdown returns the accumulated per-phase time breakdown.
func (d *Decomposer) Breakdown() *trace.Breakdown { return &d.bd }

// ResetBreakdown clears accumulated phase timings.
func (d *Decomposer) ResetBreakdown() { d.bd.Reset() }

// checkDims validates a slice's mode lengths against the decomposer.
func (d *Decomposer) checkDims(dims []int) error {
	if len(dims) != d.n {
		return fmt.Errorf("core: slice has %d modes, decomposer expects %d", len(dims), d.n)
	}
	for m, dim := range dims {
		if dim != d.dims[m] {
			return fmt.Errorf("core: slice mode %d length %d ≠ %d", m, dim, d.dims[m])
		}
	}
	return nil
}

// ProcessSlice advances the factorization by one time slice. It is
// ProcessSliceContext with a background context.
func (d *Decomposer) ProcessSlice(x *sptensor.Tensor) (SliceResult, error) {
	return d.ProcessSliceContext(context.Background(), x)
}

// ProcessStream drains a slice source, invoking cb (if non-nil) after
// every slice, and returns the per-slice results. It is
// ProcessStreamContext with a background context.
func (d *Decomposer) ProcessStream(src sptensor.SliceSource, cb func(SliceResult)) ([]SliceResult, error) {
	return d.ProcessStreamContext(context.Background(), src, cb)
}

// --- shared helpers ---------------------------------------------------

// refreshGrams recomputes C⁽ⁿ⁾ for all modes from the current factors.
func (d *Decomposer) refreshGrams() {
	for m := range d.a {
		dense.GramParallel(d.c[m], d.a[m], d.opt.Workers)
	}
}

// solveS computes the closed-form sₜ update
// (⊛_v C⁽ᵛ⁾ + λI)s = ψ, with ψ — the streaming-mode MTTKRP of the slice
// over the current factors — left in fitPsi by the caller: by a pass over
// the nonzeros before the inner loop (warm start from the previous
// slice's factors), from the last factor mode's MTTKRP once per inner
// iteration (the time mode is the (N+1)-th ALS block). ψ stays there.
func (d *Decomposer) solveS() error {
	phi := d.sPhi
	phi.Fill(1)
	for m := range d.c {
		dense.Hadamard(phi, phi, d.c[m])
	}
	dense.AddScaledIdentity(phi, phi, d.opt.StreamRidge)
	if err := d.factorize(phi); err != nil {
		return fmt.Errorf("core: sₜ solve: %w", err)
	}
	copy(d.s, d.fitPsi)
	d.chol.SolveVec(d.s)
	return nil
}

// buildMuG caches µG + ssᵀ (into phiS scratch) and µG (into muG) for the
// current slice; both are fixed across inner iterations.
func (d *Decomposer) buildMuG() {
	dense.Scale(d.muG, d.opt.Mu, d.g)
	dense.OuterProduct(d.phiS, d.s, d.s)
	dense.Add(d.phiS, d.phiS, d.muG)
}

// buildPhi computes Φ⁽ⁿ⁾ = (⊛_{v≠n} C⁽ᵛ⁾) ⊛ (µG + ssᵀ) + ridge·I into
// dst, returning the ridge actually applied.
func (d *Decomposer) buildPhi(dst *dense.Matrix, mode int) float64 {
	dst.Fill(1)
	for v := range d.c {
		if v == mode {
			continue
		}
		dense.Hadamard(dst, dst, d.c[v])
	}
	dense.Hadamard(dst, dst, d.phiS)
	ridge := d.opt.FactorRidgeRel * dense.Trace(dst) / float64(d.k)
	if ridge <= 0 || math.IsNaN(ridge) {
		ridge = 1e-12
	}
	dense.AddScaledIdentity(dst, dst, ridge)
	return ridge
}

// buildQ computes Q⁽ⁿ⁾ = (⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG into dst.
func (d *Decomposer) buildQ(dst *dense.Matrix, mode int) {
	dst.Fill(1)
	for v := range d.h {
		if v == mode {
			continue
		}
		dense.Hadamard(dst, dst, d.h[v])
	}
	dense.Hadamard(dst, dst, d.muG)
}

// finishSlice performs the bookkeeping common to all algorithms after
// the inner loop converges: the G/S temporal updates and the slice
// counter. (Normalization, when enabled, already ran per iteration —
// Algorithm 4 line 30.)
func (d *Decomposer) finishSlice() {
	// Gₜ = µGₜ₋₁ + sₜsₜᵀ.
	dense.Scale(d.g, d.opt.Mu, d.g)
	for i := 0; i < d.k; i++ {
		gi := d.g.Row(i)
		si := d.s[i]
		for j := 0; j < d.k; j++ {
			gi[j] += si * d.s[j]
		}
	}
	d.sHist = append(d.sHist, append([]float64(nil), d.s...))
	d.t++
}

// normalizeMode implements Algorithm 4's per-iteration normalize(C, H)
// (line 30) after mode m's update. The per-column 2-norms λ of the factor
// come from diag(C⁽ᵐ⁾) (so the Gram form takes the same ones), dead
// columns guarded; λ is absorbed into sₜ so the model [[A…; s]] is
// unchanged; the rows sw.a are scaled by λ⁻¹ in one more sweep, which
// takes the norms and ψ again on the scaled rows; the cached Gram state
// follows — C ← D⁻¹CD⁻¹ and H ← H·D⁻¹ (H's left side is the unscaled
// A⁽ᵐ⁾ₜ₋₁) — and the µG + ssᵀ operand is refreshed so the later modes of
// the iteration see a consistent model. λ⁻¹ stays in d.colScale.
func (d *Decomposer) normalizeMode(m int, sw coreArgs) (diff2, norm2 float64) {
	sw.inv = d.colScale
	for j := range sw.inv {
		lambda := 1.0
		if v := d.c[m].At(j, j); v > 0 {
			lambda = math.Sqrt(v)
		}
		sw.inv[j] = 1 / lambda
		d.s[j] *= lambda
	}
	diff2, norm2 = d.rowSweep(sw, nil, nil)
	dense.ScaleColumns(d.c[m], d.c[m], sw.inv)
	dense.ScaleRows(d.c[m], d.c[m], sw.inv)
	dense.ScaleColumns(d.h[m], d.h[m], sw.inv)
	d.buildMuG()
	return diff2, norm2
}
