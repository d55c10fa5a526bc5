// Package core implements the two CP-stream algorithms the runtime
// serves:
//
//   - Optimized: Algorithm 1 with optimized kernels — the compiled-plan
//     row-owner MTTKRP (where the paper has its HL kernel), no
//     per-iteration streaming-mode pass, and Blocked & Fused ADMM
//     (Algorithm 3).
//   - SpCPStream: the paper's new Algorithm 4 for non-constrained
//     problems — factor rows are partitioned into nz/z subsets, the z
//     subset is carried implicitly in K×K Gram form, and convergence is
//     checked from traces of the C and H Gram matrices.
//
// Both produce a rank-K factorization {A⁽¹⁾,…,A⁽ᴺ⁾, S} of a stream of
// N-way slices, with forgetting factor µ weighting history through the
// temporal Gram matrix G. The unoptimized CP-stream the paper measures
// them against (lock-pool MTTKRP, pass-per-operation ADMM) is an
// experiment, not a runtime option: internal/baselines.CPStream.
package core

import (
	"errors"
	"fmt"

	"spstream/internal/admm"
	"spstream/internal/parallel"
	"spstream/internal/resilience"
)

// Algorithm selects the solver variant.
type Algorithm int

const (
	// Optimized is CP-stream with the compiled-plan MTTKRP and BF-ADMM.
	Optimized Algorithm = iota
	// SpCPStream is the paper's new Gram-form algorithm (non-constrained
	// only).
	SpCPStream
)

// algNames are the -alg spellings, the text form ("spcp", where String
// says "spcp-stream").
var algNames = [...]string{Optimized: "optimized", SpCPStream: "spcp"}

// ParseAlgorithm parses the -alg flag value the CLIs share.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algNames {
		if s == name {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want optimized or spcp)", s)
}

// String names the algorithm, "Algorithm(v)" out of range.
func (a Algorithm) String() string {
	switch a {
	case Optimized:
		return "optimized"
	case SpCPStream:
		return "spcp-stream"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// MarshalText writes the spelling ParseAlgorithm reads.
func (a Algorithm) MarshalText() ([]byte, error) {
	if a < 0 || int(a) >= len(algNames) {
		return nil, fmt.Errorf("unknown algorithm %d", int(a))
	}
	return []byte(algNames[a]), nil
}

// UnmarshalText parses with ParseAlgorithm.
func (a *Algorithm) UnmarshalText(text []byte) (err error) {
	*a, err = ParseAlgorithm(string(text))
	return err
}

// The method's fixed ridges. They are constants of CP-stream, not
// per-run choices.
const (
	// StreamRidge is the Frobenius regularization on the streaming-mode
	// solve (paper §VI-B).
	StreamRidge = 1e-2
	// FactorRidgeRel scales the ridge added to Φ⁽ⁿ⁾ before factorization,
	// relative to tr(Φ)/K.
	FactorRidgeRel = 1e-6
)

// Options configure a Decomposer. Zero values select the paper's
// defaults where one exists.
type Options struct {
	// Rank K of the decomposition. Required.
	Rank int
	// Algorithm variant. Default Optimized.
	Algorithm Algorithm
	// Mu is the forgetting factor µ ∈ [0,1]. Default 0.99 (paper §VI-B).
	Mu float64
	// Tol is the outer-loop tolerance ε on |δₜ − δₜ₋₁|. Default 1e-5.
	Tol float64
	// MaxIters bounds the inner (per-slice) iteration count. Default 20.
	MaxIters int
	// Workers is the parallel width (≤0 = GOMAXPROCS). The results are
	// bit-identical at any worker count: every kernel gives each output
	// row one writer and every sum is keyed by fixed blocks, so a
	// checkpoint may resume at another width.
	Workers int
	// Constraint, when non-nil, activates constrained CP-stream with the
	// ADMM inner solver. SpCPStream rejects constraints (paper §VII).
	Constraint admm.Constraint
	// ADMMTol and ADMMMaxIters configure the inner ADMM loop.
	// Defaults 1e-4 / 50.
	ADMMTol      float64
	ADMMMaxIters int
	// Seed drives the random factor initialization. Default 1.
	Seed uint64
	// Normalize applies the per-iteration normalize(C, H) of Algorithm 4
	// (line 30): after every mode update, that mode's factor columns are
	// rescaled to unit norm (norms taken from diag(C), so the Gram-form
	// algorithm needs no explicit factors), with the scales absorbed
	// into sₜ.
	Normalize bool
	// TrackFit is ignored (see compat.go): every slice's fit is computed.
	TrackFit bool
	// MTTKRPKernel is ignored (see compat.go).
	MTTKRPKernel MTTKRPKernel
	// Layout is ignored (see compat.go).
	Layout LayoutPolicy
	// MemBudget caps the estimated resident bytes a slice may occupy
	// during processing (see perfmodel.ResidentBytes). When a slice
	// arriving through ProcessBlockSlice would exceed it, the slice is
	// evaluated out of core: the kernel is compiled over the source
	// blocks, and beside the factor matrices and one block per worker only
	// as many of the slice's (mode, block) pairs stay resident between
	// passes, as row-ordered copies, as the budget has room for (see
	// mttkrp.Kernel; Decomposer.LastResidency reports the share).
	// Results do not depend on it by a bit.
	// Non-positive (the default) means unconstrained — block sources are
	// materialized and take the regular in-memory path. Slices arriving
	// through ProcessSlice are already resident and ignore the budget.
	MemBudget int64
	// Resilience, when non-nil, enables guarded slice processing: input
	// scanning, the ridge-escalation recovery ladder for solver
	// failures, post-slice health checks, last-good snapshot rollback,
	// and the RetrySlice/SkipSlice/Abort policy. See resilience.Config.
	Resilience *resilience.Config
}

// WithDefaults returns o with every zero field replaced by its
// documented default.
func (o Options) WithDefaults() Options {
	if o.Mu == 0 {
		o.Mu = 0.99
	}
	if o.Tol <= 0 {
		o.Tol = 1e-5
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 20
	}
	if o.Workers <= 0 {
		o.Workers = parallel.DefaultWorkers()
	}
	if o.ADMMTol <= 0 {
		o.ADMMTol = 1e-4
	}
	if o.ADMMMaxIters <= 0 {
		o.ADMMMaxIters = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Resilience != nil {
		cfg := o.Resilience.WithDefaults()
		o.Resilience = &cfg
	}
	return o
}

// Validate reports configuration errors.
func (o Options) Validate(dims []int) error {
	if o.Rank < 1 {
		return errors.New("core: Rank must be ≥ 1")
	}
	if len(dims) < 2 {
		return fmt.Errorf("core: need ≥ 2 non-streaming modes, got %d", len(dims))
	}
	for m, d := range dims {
		if d < 1 {
			return fmt.Errorf("core: mode %d has non-positive length %d", m, d)
		}
	}
	if o.Mu < 0 || o.Mu > 1 {
		return fmt.Errorf("core: forgetting factor µ=%g outside [0,1]", o.Mu)
	}
	if o.Algorithm < Optimized || o.Algorithm > SpCPStream {
		return fmt.Errorf("core: unknown Algorithm %d", int(o.Algorithm))
	}
	if o.Algorithm == SpCPStream && o.Constraint != nil {
		return errors.New("core: spCP-stream does not support constraints (paper §VII); use Optimized")
	}
	return nil
}

// SliceResult reports the outcome of processing one time slice.
type SliceResult struct {
	// T is the 0-based time index of the slice just processed.
	T int
	// NNZ is the slice's nonzero count.
	NNZ int
	// Iters is the number of inner iterations run.
	Iters int
	// Delta is the final convergence measure δₜ (Eq. 15).
	Delta float64
	// Converged reports whether |δ−δ_prev| < Tol within MaxIters.
	Converged bool
	// ADMMIters is the total ADMM iteration count across modes and
	// inner iterations (constrained runs only).
	ADMMIters int
	// Fit is 1 − ‖X−X̂‖/‖X‖ for this slice, NaN for an empty one.
	Fit float64
	// Retries is the number of whole-slice re-runs the resilience layer
	// consumed before this result (0 on the first attempt).
	Retries int
	// Skipped reports that the slice was dropped under the SkipSlice
	// policy: the decomposer state is the pre-slice snapshot and the
	// other result fields describe the final failed attempt.
	Skipped bool
}
