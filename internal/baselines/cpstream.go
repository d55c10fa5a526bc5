package baselines

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"spstream/internal/admm"
	"spstream/internal/core"
	"spstream/internal/dense"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
	"spstream/internal/trace"
)

// CPStream is the unoptimized CP-stream the paper argues every
// contribution against: Algorithm 1 with the lock-pool MTTKRP, a
// single-lock streaming-mode pass every inner iteration (§IV-B, Fig. 4)
// and, under a constraint, the pass-per-operation ADMM of Algorithm 2. It
// is an experiment, not a runtime option: a plain transcription that
// allocates freely, takes resident slices only, has no plan, layout,
// streaming, rollback or checkpoint, and shares no driver code with
// internal/core — so each can be checked against the other. It reads
// core.Options as plain data (the algorithm, kernel, layout, memory and
// resilience settings do not apply) and draws its initial factors from
// Options.Seed exactly as core.NewDecomposer does. Above one worker the
// lock kernels add in lock order: two runs differ in the last bits.
type CPStream struct {
	opt  core.Options
	dims []int
	a, c []*dense.Matrix // factors A⁽ⁿ⁾ and their Grams C⁽ⁿ⁾ = A⁽ⁿ⁾ᵀA⁽ⁿ⁾
	g    *dense.Matrix   // temporal Gram G
	s    []float64       // sₜ
	t    int

	lk     *LockKernels
	solver *admm.Solver
	bd     trace.Breakdown
}

// NewCPStream creates the baseline for slices with the given mode lengths.
func NewCPStream(dims []int, opt core.Options) (*CPStream, error) {
	opt = opt.WithDefaults()
	if err := opt.Validate(dims); err != nil {
		return nil, err
	}
	if opt.Normalize {
		return nil, errors.New("baselines: CPStream does not implement Options.Normalize")
	}
	k := opt.Rank
	b := &CPStream{
		opt: opt, dims: slices.Clone(dims), g: dense.NewMatrix(k, k), s: make([]float64, k),
		lk:     NewLockKernels(opt.Workers),
		solver: admm.NewSolver(admm.Options{Workers: opt.Workers, Tol: opt.ADMMTol, MaxIters: opt.ADMMMaxIters}),
	}
	rng := synth.NewRNG(opt.Seed)
	for _, dim := range dims {
		f, c := dense.NewMatrix(dim, k), dense.NewMatrix(k, k)
		for i := range f.Data {
			f.Data[i] = rng.Float64() + 0.1
		}
		dense.GramParallel(c, f, opt.Workers)
		b.a, b.c = append(b.a, f), append(b.c, c)
	}
	return b, nil
}

// Factor returns the current factor matrix for mode n (live storage).
func (b *CPStream) Factor(n int) *dense.Matrix { return b.a[n] }

// LastS returns the most recent temporal row sₜ (live storage).
func (b *CPStream) LastS() []float64 { return b.s }

// T returns the number of slices processed so far.
func (b *CPStream) T() int { return b.t }

// Breakdown returns the accumulated per-phase times (the Fig. 8
// categories, attributed as internal/core attributes them).
func (b *CPStream) Breakdown() *trace.Breakdown { return &b.bd }

// solveS is the closed-form sₜ update (⊛_v C⁽ᵛ⁾ + λI)s = ψ with ψ the
// single-lock streaming-mode MTTKRP over the current factors, followed by
// µG and µG + ssᵀ for the new sₜ. It returns ψ for the fit.
func (b *CPStream) solveS(x *sptensor.Tensor) (psi []float64, muG, phiS *dense.Matrix, err error) {
	psi = make([]float64, len(b.s))
	b.lk.TimeModeLocked(psi, x, b.a)
	copy(b.s, psi)
	if err := solveTemporal(b.s, b.c, b.opt.StreamRidge); err != nil {
		return nil, nil, nil, err
	}
	muG, phiS = dense.NewMatrix(len(b.s), len(b.s)), dense.NewMatrix(len(b.s), len(b.s))
	dense.Scale(muG, b.opt.Mu, b.g)
	dense.OuterProduct(phiS, b.s, b.s)
	dense.Add(phiS, phiS, muG)
	return psi, muG, phiS, nil
}

// ProcessSlice advances the factorization by one time slice (Algorithm 1).
func (b *CPStream) ProcessSlice(x *sptensor.Tensor) (core.SliceResult, error) {
	res := core.SliceResult{T: b.t, Fit: math.NaN()}
	if x == nil || !slices.Equal(x.Dims, b.dims) {
		return res, fmt.Errorf("baselines: slice does not have mode lengths %v", b.dims)
	}
	res.NNZ = x.NNZ()
	opt, k, w := b.opt, b.opt.Rank, b.opt.Workers
	t0 := time.Now()
	lap := func(p trace.Phase) { now := time.Now(); b.bd.Add(p, now.Sub(t0)); t0 = now }

	// Pre: A_{t−1}, H = C (A == A_{t−1} entering the inner loop), and the
	// sₜ warm start from the previous slice's factors.
	prevA, h := make([]*dense.Matrix, len(b.a)), make([]*dense.Matrix, len(b.a))
	for m := range b.a {
		prevA[m], h[m] = b.a[m].Clone(), b.c[m].Clone()
	}
	psiS, muG, phiS, err := b.solveS(x)
	if err != nil {
		return res, err
	}
	lap(trace.Pre)
	deltaPrev := math.Inf(1)
	for res.Iters < opt.MaxIters && !res.Converged {
		res.Iters++
		b.bd.Iters++
		for n := range b.a {
			// Φ⁽ⁿ⁾ = (⊛_{v≠n} C⁽ᵛ⁾) ⊛ (µG + ssᵀ) + ridge·I.
			phi := hadamardExcept(b.c, n)
			dense.Hadamard(phi, phi, phiS)
			ridge := opt.FactorRidgeRel * dense.Trace(phi) / float64(k)
			if ridge <= 0 || math.IsNaN(ridge) {
				ridge = 1e-12
			}
			dense.AddScaledIdentity(phi, phi, ridge)
			chol, err := dense.Factor(phi)
			if err != nil {
				return res, fmt.Errorf("baselines: mode %d Φ factorization: %w", n, err)
			}
			lap(trace.Inverse)
			// Ψ⁽ⁿ⁾ = MTTKRP(Xₜ, {A}, n)·diag(sₜ) + A⁽ⁿ⁾ₜ₋₁·Q⁽ⁿ⁾, with
			// Q⁽ⁿ⁾ = (⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG the historical term.
			psi, hist := dense.NewMatrix(b.dims[n], k), dense.NewMatrix(b.dims[n], k)
			b.lk.Lock(psi, x, b.a, n)
			lap(trace.MTTKRP)
			dense.ScaleColumns(psi, psi, b.s)
			q := hadamardExcept(h, n)
			dense.Hadamard(q, q, muG)
			dense.MulABParallel(hist, prevA[n], q, w)
			dense.Add(psi, psi, hist)
			lap(trace.Historical)
			// A⁽ⁿ⁾ = Ψ⁽ⁿ⁾Φ⁽ⁿ⁾⁻¹, or Algorithm 2 under a constraint.
			if opt.Constraint == nil {
				chol.SolveRowsInto(b.a[n], psi)
			} else {
				st, err := b.solver.Baseline(b.a[n], phi, psi, opt.Constraint)
				res.ADMMIters += st.Iters
				if err != nil {
					return res, fmt.Errorf("baselines: mode %d ADMM: %w", n, err)
				}
			}
			lap(trace.Update)
			dense.GramParallel(b.c[n], b.a[n], w)
			lap(trace.Gram)
			dense.MulAtBParallel(h[n], prevA[n], b.a[n], w)
			lap(trace.Historical)
		}
		// The time mode is the (N+1)-th ALS block: a pass over the
		// nonzeros behind one lock, every inner iteration.
		if psiS, muG, phiS, err = b.solveS(x); err != nil {
			return res, err
		}
		lap(trace.MTTKRP)
		// δₜ = Σ_n ‖A⁽ⁿ⁾−A⁽ⁿ⁾ₜ₋₁‖_F / ‖A⁽ⁿ⁾‖_F (Eq. 15).
		res.Delta = 0
		for n := range b.a {
			if den := dense.FrobNorm2(b.a[n]); den > 0 {
				res.Delta += math.Sqrt(dense.FrobNorm2Diff(b.a[n], prevA[n]) / den)
			}
		}
		res.Converged = math.Abs(res.Delta-deltaPrev) < opt.Tol
		deltaPrev = res.Delta
		lap(trace.Error)
	}
	if opt.TrackFit {
		res.Fit = fitFromPsi(x, psiS, b.c, b.s)
		lap(trace.Misc)
	}
	// Post: Gₜ = µGₜ₋₁ + sₜsₜᵀ, which is the µG + ssᵀ of the last sₜ.
	b.g = phiS
	b.t++
	lap(trace.Post)
	return res, nil
}
