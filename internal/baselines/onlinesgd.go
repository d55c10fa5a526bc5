package baselines

import (
	"fmt"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// OnlineSGD is the stochastic-gradient streaming decomposition of
// Mardani et al. (§II): the temporal weights are solved in closed form
// per slice, and the non-temporal factor rows are updated by SGD passes
// over the slice's nonzeros. As the paper notes, "finding the optimal
// learning rate is non-trivial" — the LearningRate and Passes knobs are
// exposed so the comparison example can show exactly that sensitivity.
type OnlineSGD struct {
	dims []int
	k    int
	a    []*dense.Matrix
	c    []*dense.Matrix
	s    []float64
	mt   *mttkrp.Computer
	rng  *synth.RNG
	t    int

	// LearningRate is the SGD step size η. Default 0.05.
	LearningRate float64
	// Passes is the number of SGD sweeps over each slice. Default 3.
	Passes int
	// Decay shrinks η each slice (η ← η·Decay). Default 1 (constant).
	Decay float64
	// L2 is the per-update weight decay. Default 1e-4.
	L2 float64
	// MaxStep clips each element's update magnitude, keeping the
	// iteration finite even with an aggressive learning rate.
	// Default 0.5.
	MaxStep float64
}

// NewOnlineSGD creates an Online-SGD tracker.
func NewOnlineSGD(dims []int, rank, workers int, seed uint64) (*OnlineSGD, error) {
	if rank < 1 {
		return nil, fmt.Errorf("baselines: rank must be ≥ 1")
	}
	if len(dims) < 2 {
		return nil, fmt.Errorf("baselines: need ≥ 2 modes")
	}
	o := &OnlineSGD{
		dims:         append([]int(nil), dims...),
		k:            rank,
		mt:           mttkrp.NewComputer(workers),
		rng:          synth.NewRNG(seed),
		s:            make([]float64, rank),
		LearningRate: 0.01,
		Passes:       2,
		Decay:        1,
		L2:           1e-4,
		MaxStep:      0.5,
	}
	for _, d := range dims {
		f := dense.NewMatrix(d, rank)
		for i := range f.Data {
			f.Data[i] = o.rng.Float64() + 0.1
		}
		o.a = append(o.a, f)
		o.c = append(o.c, dense.NewMatrix(rank, rank))
	}
	o.refreshGrams()
	return o, nil
}

func (o *OnlineSGD) refreshGrams() {
	for m := range o.a {
		dense.Gram(o.c[m], o.a[m])
	}
}

// Factor returns the mode-n factor matrix (live storage).
func (o *OnlineSGD) Factor(n int) *dense.Matrix { return o.a[n] }

// LastS returns the latest temporal row.
func (o *OnlineSGD) LastS() []float64 { return o.s }

// T returns the number of slices processed.
func (o *OnlineSGD) T() int { return o.t }

// ProcessSlice runs the closed-form sₜ solve followed by SGD sweeps
// over the slice's nonzeros.
func (o *OnlineSGD) ProcessSlice(x *sptensor.Tensor) error {
	if x.NModes() != len(o.dims) {
		return fmt.Errorf("baselines: slice has %d modes, want %d", x.NModes(), len(o.dims))
	}
	k := o.k
	// sₜ via least squares on current factors.
	o.mt.TimeMode(o.s, x, o.a)
	if err := solveTemporal(o.s, o.c, 1e-2); err != nil {
		return err
	}

	eta := o.LearningRate
	for p := 0; p < o.t; p++ {
		eta *= o.Decay
	}
	rowBuf := make([]float64, k)
	grad := make([]float64, k)
	nnz := x.NNZ()
	for pass := 0; pass < o.Passes; pass++ {
		for draw := 0; draw < nnz; draw++ {
			e := o.rng.Intn(nnz)
			// Model value and residual at this coordinate.
			for j := 0; j < k; j++ {
				rowBuf[j] = o.s[j]
			}
			for v, f := range o.a {
				row := f.Row(int(x.Inds[v][e]))
				for j := 0; j < k; j++ {
					rowBuf[j] *= row[j]
				}
			}
			pred := 0.0
			for j := 0; j < k; j++ {
				pred += rowBuf[j]
			}
			resid := x.Vals[e] - pred
			// Gradient step on every mode's row.
			for v, f := range o.a {
				row := f.Row(int(x.Inds[v][e]))
				for j := 0; j < k; j++ {
					// ∂pred/∂row[j] = rowBuf[j]/row[j] when row[j]≠0;
					// recompute stably as the product of the others.
					g := o.s[j]
					for u, fu := range o.a {
						if u == v {
							continue
						}
						g *= fu.At(int(x.Inds[u][e]), j)
					}
					grad[j] = resid*g - o.L2*row[j]
				}
				for j := 0; j < k; j++ {
					step := eta * grad[j]
					if step > o.MaxStep {
						step = o.MaxStep
					} else if step < -o.MaxStep {
						step = -o.MaxStep
					}
					row[j] += step
				}
			}
		}
	}
	o.refreshGrams()
	o.t++
	return nil
}

// Fit returns 1 − ‖X−X̂‖/‖X‖ of the current model on the given slice.
func (o *OnlineSGD) Fit(x *sptensor.Tensor) float64 {
	return modelFit(o.mt, x, o.a, o.c, o.s)
}
