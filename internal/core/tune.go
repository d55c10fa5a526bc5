package core

// This file is the runtime tuning surface the lag-aware degradation
// controller (internal/ingest) drives: the knobs that trade model
// quality for per-slice throughput while a stream is live. All of them
// may only be called between slices (the Decomposer is not safe for
// concurrent use), which is exactly when the controller runs — after
// one ProcessSliceContext returns and before the next begins.

// MaxIters returns the current inner (per-slice) iteration bound.
func (d *Decomposer) MaxIters() int { return d.opt.MaxIters }

// SetMaxIters adjusts the inner iteration bound for subsequent slices
// (floor 1). Fewer inner iterations is the cheapest quality/throughput
// trade: the factors take smaller steps per slice but the model stays
// well-defined.
func (d *Decomposer) SetMaxIters(n int) {
	if n < 1 {
		n = 1
	}
	d.opt.MaxIters = n
}

// ADMMMaxIters returns the inner ADMM iteration bound (constrained
// runs).
func (d *Decomposer) ADMMMaxIters() int { return d.solver.Options().MaxIters }

// SetADMMMaxIters adjusts the ADMM inner-loop bound for subsequent
// solves (floor 1).
func (d *Decomposer) SetADMMMaxIters(n int) { d.solver.SetMaxIters(n) }

// Algorithm returns the solver variant currently in use.
func (d *Decomposer) Algorithm() Algorithm { return d.opt.Algorithm }

// SetAlgorithm switches the solver variant between slices. Both run the
// one slice body and differ only in its z set — the untouched rows under
// spCP-stream, none under Optimized — and the state that crosses slice
// boundaries is the same factors and Grams — a z = ∅ slice first
// flushes the z side spCP-stream leaves lazy (Version), and a z set
// computes its C_z,t−1 from the rows it gathers — so the switch is
// exact.
//
// The same constraint-compatibility rules as construction apply
// (spCP-stream rejects constraints); incompatible switches return an
// error and leave the decomposer unchanged.
func (d *Decomposer) SetAlgorithm(a Algorithm) error {
	if a == d.opt.Algorithm {
		return nil
	}
	trial := d.opt
	trial.Algorithm = a
	if err := trial.Validate(d.dims); err != nil {
		return err
	}
	d.opt.Algorithm = a
	return nil
}
