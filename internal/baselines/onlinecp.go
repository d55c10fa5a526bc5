// Package baselines implements the related-work streaming decomposition
// methods the paper compares against conceptually (§II): OnlineCP
// (Zhou et al., KDD'16) and Online-SGD (Mardani et al., TSP'15). They
// exist so the repository can substantiate the paper's positioning —
// CP-stream-family methods versus accumulation- and SGD-based updates —
// on the same streams, with the same factors API.
//
// Both are adapted to sparse slices through the shared MTTKRP kernels.
// OnlineCP here is the sparse adaptation of the paper's description
// ("has not been adapted to handle sparse tensors"): it accumulates the
// normal-equation matrices P⁽ⁿ⁾ and Q⁽ⁿ⁾ over the whole history with no
// forgetting and performs one closed-form update per slice (no inner
// iterations). It is cheap per slice but cannot track drift — exactly
// the behaviour the comparison example demonstrates.
package baselines

import (
	"fmt"
	"math"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// OnlineCP maintains per-mode accumulation matrices
// P⁽ⁿ⁾ = Σ_t MTTKRP(Xₜ,{A},n)·diag(sₜ) and
// Q⁽ⁿ⁾ = Σ_t (⊛_{v≠n} C⁽ᵛ⁾) ⊛ sₜsₜᵀ and updates each factor once per
// slice as A⁽ⁿ⁾ = P⁽ⁿ⁾(Q⁽ⁿ⁾)⁻¹.
type OnlineCP struct {
	dims []int
	k    int
	a    []*dense.Matrix
	c    []*dense.Matrix // Gram cache
	p    []*dense.Matrix
	q    []*dense.Matrix
	s    []float64
	mt   *mttkrp.Computer
	lk   *LockKernels
	// ridge stabilizes the Q solves.
	ridge float64
	psi   []*dense.Matrix
	t     int
}

// NewOnlineCP creates an OnlineCP tracker for slices with the given
// mode lengths.
func NewOnlineCP(dims []int, rank, workers int, seed uint64) (*OnlineCP, error) {
	if rank < 1 {
		return nil, fmt.Errorf("baselines: rank must be ≥ 1")
	}
	if len(dims) < 2 {
		return nil, fmt.Errorf("baselines: need ≥ 2 modes")
	}
	o := &OnlineCP{
		dims:  append([]int(nil), dims...),
		k:     rank,
		mt:    mttkrp.NewComputer(workers),
		lk:    NewLockKernels(workers),
		ridge: 1e-6,
		s:     make([]float64, rank),
	}
	r := synth.NewRNG(seed)
	for _, d := range dims {
		f := dense.NewMatrix(d, rank)
		for i := range f.Data {
			f.Data[i] = r.Float64() + 0.1
		}
		o.a = append(o.a, f)
		o.c = append(o.c, dense.NewMatrix(rank, rank))
		o.p = append(o.p, dense.NewMatrix(d, rank))
		o.q = append(o.q, dense.NewMatrix(rank, rank))
		o.psi = append(o.psi, dense.NewMatrix(d, rank))
	}
	o.refreshGrams()
	return o, nil
}

func (o *OnlineCP) refreshGrams() {
	for m := range o.a {
		dense.Gram(o.c[m], o.a[m])
	}
}

// Factor returns the mode-n factor matrix (live storage).
func (o *OnlineCP) Factor(n int) *dense.Matrix { return o.a[n] }

// LastS returns the latest temporal row.
func (o *OnlineCP) LastS() []float64 { return o.s }

// T returns the number of slices processed.
func (o *OnlineCP) T() int { return o.t }

// ProcessSlice performs the OnlineCP update for one slice.
func (o *OnlineCP) ProcessSlice(x *sptensor.Tensor) error {
	if x.NModes() != len(o.dims) {
		return fmt.Errorf("baselines: slice has %d modes, want %d", x.NModes(), len(o.dims))
	}
	k := o.k
	// sₜ: closed-form LS against the current factors.
	o.mt.TimeMode(o.s, x, o.a)
	if err := solveTemporal(o.s, o.c, 1e-2); err != nil {
		return err
	}

	// Accumulate P and Q and refresh each factor once.
	ssT := dense.NewMatrix(k, k)
	dense.OuterProduct(ssT, o.s, o.s)
	for n := range o.a {
		o.lk.Hybrid(o.psi[n], x, o.a, n)
		dense.ScaleColumns(o.psi[n], o.psi[n], o.s)
		dense.Add(o.p[n], o.p[n], o.psi[n])
		had := hadamardExcept(o.c, n)
		dense.Hadamard(had, had, ssT)
		dense.Add(o.q[n], o.q[n], had)
		ridge := o.ridge * (1 + dense.Trace(o.q[n])/float64(k))
		qc, err := dense.FactorRidge(o.q[n], ridge)
		if err != nil {
			return fmt.Errorf("baselines: mode %d Q factorization: %w", n, err)
		}
		qc.SolveRowsInto(o.a[n], o.p[n])
		dense.Gram(o.c[n], o.a[n])
	}
	o.t++
	return nil
}

// Fit returns 1 − ‖X−X̂‖/‖X‖ of the current model on the given slice.
func (o *OnlineCP) Fit(x *sptensor.Tensor) float64 {
	return modelFit(o.mt, x, o.a, o.c, o.s)
}

// modelFit is the sparse fit of the model {a, s} (Grams c) on x; 0 for
// an empty slice.
func modelFit(mt *mttkrp.Computer, x *sptensor.Tensor, a, c []*dense.Matrix, s []float64) float64 {
	if x.Norm2() == 0 {
		return 0
	}
	psi := make([]float64, len(s))
	mt.TimeMode(psi, x, a)
	return fitFromPsi(x, psi, c, s)
}

// hadamardExcept returns ⊛_{v≠skip} ms[v] as a new matrix (skip = -1: all).
func hadamardExcept(ms []*dense.Matrix, skip int) *dense.Matrix {
	out := dense.NewMatrix(ms[0].Rows, ms[0].Cols)
	out.Fill(1)
	for v, m := range ms {
		if v != skip {
			dense.Hadamard(out, out, m)
		}
	}
	return out
}

// solveTemporal overwrites s = ψ, the streaming-mode MTTKRP, with the
// closed-form temporal row: (⊛_v C⁽ᵛ⁾ + ridge·I)s = ψ.
func solveTemporal(s []float64, c []*dense.Matrix, ridge float64) error {
	phi := hadamardExcept(c, -1)
	dense.AddScaledIdentity(phi, phi, ridge)
	chol, err := dense.Factor(phi)
	if err != nil {
		return fmt.Errorf("baselines: sₜ solve: %w", err)
	}
	chol.SolveVec(s)
	return nil
}

// fitFromPsi returns 1 − ‖X−X̂‖_F/‖X‖_F in sparse form (see
// core.sliceFit): ⟨X, X̂⟩ = sᵀψ with ψ the streaming-mode MTTKRP of x over
// the factors, ‖X̂‖² = sᵀ(⊛_v C⁽ᵛ⁾)s. NaN for an empty slice.
func fitFromPsi(x *sptensor.Tensor, psi []float64, c []*dense.Matrix, s []float64) float64 {
	xnorm2 := x.Norm2()
	if xnorm2 == 0 {
		return math.NaN()
	}
	tmp := make([]float64, len(s))
	dense.MulVec(tmp, hadamardExcept(c, -1), s)
	err2 := xnorm2 - 2*dense.Dot(s, psi) + dense.Dot(s, tmp)
	if err2 < 0 {
		err2 = 0
	}
	return 1 - math.Sqrt(err2/xnorm2)
}
