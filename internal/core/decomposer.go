package core

import (
	"context"
	"fmt"
	"math"

	"spstream/internal/admm"
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

	// Factor state: the committed factors A⁽ⁿ⁾ (Iₙ×K), the retired
	// version a slice writes its iterate into, and a retired version a
	// reader still held when it was due (version.go). ids numbers version
	// contents (Version.id).
	cur, spare, parked *Version
	ids                uint64
	modes              []modeState   // one record per mode
	g                  *dense.Matrix // temporal Gram G (K×K)
	s                  []float64     // current sₜ
	t                  int           // slices processed

	// The highest WAL sequence number whose slice the state includes
	// (Cursor); it is checkpointed with the state.
	cursor uint64

	// The pooled remapper that renumbers each spCP slice into nz-row
	// space.
	remapper mttkrp.Remapper
	// One 1×K row per worker for the flush, and the count of rows the
	// z side has brought current (the nz gathers and the flushes).
	zRows     []dense.Matrix
	zRowsRead int

	// Kernels and workspaces.
	lastM  *dense.Matrix // raw MTTKRP of a constrained last factor mode
	mt     *mttkrp.Computer
	solver *admm.Solver
	bd     trace.Breakdown
	rng    *synth.RNG
	pool   *parallel.Pool

	// The MTTKRP kernel every slice recompiles (kernels.go), with the
	// streaming share of Options.MemBudget, and the evaluation mode
	// SelectEval picked for the most recent block slice (streamed.go).
	kernel   *mttkrp.Kernel
	lastEval perfmodel.EvalMode

	// Scratch K×K matrices reused across iterations.
	muG, phiS, sPhi, scratch1, scratch2, tmpKK *dense.Matrix

	// Reusable Cholesky factorization of the per-mode Φ (and the sₜ Φ).
	chol dense.Cholesky

	// Reusable column-scale buffer for normalization.
	colScale []float64

	// Rank-K vectors of the fit (ψ and (⊛C)·s). ψ is also every sₜ
	// solve's right-hand side. sweepPart: rowSweep's block partials;
	// sweepTr: its per-worker column-major sub-block copies; qPanels: Q
	// packed for the staging (packPanels). Grow-only.
	fitPsi, fitTmp, sweepPart, sweepTr []float64
	qPanels                            [][4]float64

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

// modeState is one mode's share of the Decomposer — Alg. 4 is written
// per mode: C⁽ⁿ⁾ = AᵀA (c; the committed factors' at slice boundaries),
// and H⁽ⁿ⁾ = Aₜ₋₁ᵀA (h) and tr(C⁽ⁿ⁾ₜ₋₁) (trPrev), which beginSlice
// seeds; the slice body's grow-only matrices — the Ψ workspace psi,
// sized to the rows the body iterates (Iₙ, or |nz|), and, with a z set,
// the |nz|×K iterate aNz, its A_{t−1} gather aNzPrev, and the K×K
// C_z,t−1 cz, final transform tFinal and current C_z czCur, each
// written in full in the slice before anything reads it (MaxIters ≥ 1,
// so finishZ and the health check never see a previous slice's); and
// view, the committed factor Factor brought current for the contents
// viewID names, until the next slice begins.
type modeState struct {
	c, h                    *dense.Matrix
	trPrev                  float64
	psi, aNz, aNzPrev       *dense.Matrix
	cz, tFinal, czCur, view *dense.Matrix
	viewID                  uint64
}

// SetCommitHook registers a callback invoked immediately after a slice
// commits — ProcessSliceContext returning nil, with the factor state
// advanced to include the slice. It never fires for failed, skipped,
// rolled-back, or cancelled slices, so a hook that publishes the
// factors (the serving layer's snapshot publisher) can never observe
// state a later rollback will retract: by the time the hook runs, the
// slice's mutations are final. The hook runs on the goroutine driving
// the decomposer, while it is quiescent — reading factors, Fit, and T
// inside the hook is safe. A factor it reads is valid until the next
// slice begins; to hold one longer, Pin the Committed version, which
// the decomposer then leaves unwritten until it is released.
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
	}
	d.kernel = mttkrp.NewKernel(d.mt)
	d.kernel.SetShare(kernelShare(opt, dims))
	d.solver = admm.NewSolver(admm.Options{
		Workers:  opt.Workers,
		Tol:      opt.ADMMTol,
		MaxIters: opt.ADMMMaxIters,
	})
	k := d.k
	d.cur = d.newVersion()
	for _, r := range d.cur.modes {
		for i := range r.a.Data {
			r.a.Data[i] = d.rng.Float64() + 0.1 // positive, well away from 0
		}
	}
	d.endWrite(d.cur)
	d.modes = make([]modeState, d.n)
	for m := range d.modes {
		md := &d.modes[m]
		md.c, md.h, md.cz = dense.NewMatrix(k, k), dense.NewMatrix(k, k), dense.NewMatrix(k, k)
		md.tFinal, md.czCur = dense.NewMatrix(k, k), dense.NewMatrix(k, k)
		dense.GramParallel(md.c, d.cur.modes[m].a, d.opt.Workers)
	}
	d.g = dense.NewMatrix(k, k)
	d.s = make([]float64, k)
	d.muG = dense.NewMatrix(k, k)
	d.phiS = dense.NewMatrix(k, k)
	d.sPhi = dense.NewMatrix(k, k)
	d.scratch1 = dense.NewMatrix(k, k)
	d.scratch2 = dense.NewMatrix(k, k)
	d.tmpKK = dense.NewMatrix(k, k)
	d.colScale = make([]float64, k)
	d.fitPsi = make([]float64, k)
	d.fitTmp = make([]float64, k)
	return d, nil
}

// Dims returns the slice mode lengths.
func (d *Decomposer) Dims() []int { return d.dims }

// Rank returns the decomposition rank K.
func (d *Decomposer) Rank() int { return d.k }

// T returns the number of slices processed so far.
func (d *Decomposer) T() int { return d.t }

// LastS returns the most recent temporal row sₜ (live storage): the
// row of S the last committed slice appended. The decomposer keeps no
// earlier rows; a caller that wants S copies this after every slice
// that committed — in a ProcessStream callback, every result that is
// not Skipped.
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

// solveS computes the closed-form sₜ update
// (⊛_v C⁽ᵛ⁾ + λI)s = ψ, with ψ — the streaming-mode MTTKRP of the slice
// over the current factors — left in fitPsi by a row sweep: beginSlice's
// over mode 0's MTTKRP and A_{t−1} (the warm start from the previous
// slice's factors), then once per inner iteration the last factor
// mode's (the time mode is the (N+1)-th ALS block). ψ stays there.
func (d *Decomposer) solveS() error {
	phi := d.sPhi
	phi.Fill(1)
	for m := range d.modes {
		dense.Hadamard(phi, phi, d.modes[m].c)
	}
	dense.AddScaledIdentity(phi, phi, StreamRidge)
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
	for v := range d.modes {
		if v == mode {
			continue
		}
		dense.Hadamard(dst, dst, d.modes[v].c)
	}
	dense.Hadamard(dst, dst, d.phiS)
	ridge := FactorRidgeRel * dense.Trace(dst) / float64(d.k)
	if ridge <= 0 || math.IsNaN(ridge) {
		ridge = 1e-12
	}
	dense.AddScaledIdentity(dst, dst, ridge)
	return ridge
}

// buildQ computes Q⁽ⁿ⁾ = (⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG into dst.
func (d *Decomposer) buildQ(dst *dense.Matrix, mode int) {
	dst.Fill(1)
	for v := range d.modes {
		if v == mode {
			continue
		}
		dense.Hadamard(dst, dst, d.modes[v].h)
	}
	dense.Hadamard(dst, dst, d.muG)
}

// advanceTime performs the bookkeeping that closes every slice after the
// inner loop converges: the temporal Gram update and the slice counter.
// No row of S is kept: the algorithm reads the past only through G.
// (Normalization, when enabled, already ran per iteration — Algorithm 4
// line 30.)
func (d *Decomposer) advanceTime() {
	// Gₜ = µGₜ₋₁ + sₜsₜᵀ.
	dense.Scale(d.g, d.opt.Mu, d.g)
	for i := 0; i < d.k; i++ {
		gi := d.g.Row(i)
		si := d.s[i]
		for j := 0; j < d.k; j++ {
			gi[j] += si * d.s[j]
		}
	}
	d.t++
}

// normalizeMode implements Algorithm 4's per-iteration normalize(C, H)
// (line 30) after mode m's update. The per-column 2-norms λ of the factor
// come from diag(C⁽ᵐ⁾) (so the Gram form takes the same ones), dead
// columns guarded; λ is absorbed into sₜ so the model [[A…; s]] is
// unchanged; the rows sw.a are scaled by λ⁻¹ in one more sweep, which
// takes the norms (sw.norms) and ψ again on the scaled rows; the cached
// Gram state follows — C ← D⁻¹CD⁻¹ and H ← H·D⁻¹ (H's left side is the
// unscaled A⁽ᵐ⁾ₜ₋₁) — and the µG + ssᵀ operand is refreshed so the later
// modes of the iteration see a consistent model. λ⁻¹ stays in
// d.colScale.
func (d *Decomposer) normalizeMode(m int, sw coreArgs) (diff2, norm2 float64) {
	md := &d.modes[m]
	sw.inv = d.colScale
	for j := range sw.inv {
		lambda := 1.0
		if v := md.c.At(j, j); v > 0 {
			lambda = math.Sqrt(v)
		}
		sw.inv[j] = 1 / lambda
		d.s[j] *= lambda
	}
	diff2, norm2 = d.rowSweep(sw, nil, nil)
	dense.ScaleColumns(md.c, md.c, sw.inv)
	dense.ScaleRows(md.c, md.c, sw.inv)
	dense.ScaleColumns(md.h, md.h, sw.inv)
	d.buildMuG()
	return diff2, norm2
}
