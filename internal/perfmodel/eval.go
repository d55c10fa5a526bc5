package perfmodel

// Evaluation-mode selection: before any kernel choice, the decomposer
// must decide whether a slice's working set fits in memory at all. The
// functions here are pure — they depend only on their arguments — so a
// checkpoint replay on the same inputs reselects the same mode and the
// resumed factor stream stays bit-identical.

// EvalMode says where a slice's inner iterations run.
type EvalMode int

const (
	// EvalInMemory materializes the slice and runs the compiled
	// in-memory kernels (plan / CSF, chosen per mode by SelectMTTKRP).
	EvalInMemory EvalMode = iota
	// EvalStreamed keeps the slice out of core and streams every kernel
	// over its blocks; the factors, one decoded block per worker and
	// what of the slice the budget has room for stay resident.
	EvalStreamed
)

func (m EvalMode) String() string {
	if m == EvalStreamed {
		return "streamed"
	}
	return "in-memory"
}

// residentMultiplier scales raw coordinate storage to the in-memory
// path's working set: the COO arrays themselves, the per-mode plan
// permutations or CSF tree (≈ one extra copy), the build scratch
// (double-buffered radix permutation), and allocator slack. Measured
// high-water marks on the bench configs sit between 3× and 4× the raw
// nonzero payload; 4 is the conservative choice — over-estimating
// resident size streams a slice that would barely have fit, which
// costs throughput, while under-estimating breaks the memory budget.
const residentMultiplier = 4

// ResidentBytes estimates the peak resident footprint of processing an
// nnz-nonzero, nModes-mode slice with the in-memory kernels.
func ResidentBytes(nnz, nModes int) int64 {
	entry := int64(4*nModes + 8) // int32 coordinate per mode + float64 value
	return int64(nnz) * entry * residentMultiplier
}

// SelectEval picks the evaluation mode for a slice of the given shape
// under a memory budget in bytes. A non-positive budget means
// unconstrained: always in-memory.
func (s Selector) SelectEval(nnz, nModes int, memBudget int64) EvalMode {
	if memBudget <= 0 {
		return EvalInMemory
	}
	if ResidentBytes(nnz, nModes) > memBudget {
		return EvalStreamed
	}
	return EvalInMemory
}
