// Constrained streaming decomposition: non-negative factors for
// interpretability (paper §IV). A NIPS-like publication stream
// (paper × author × word, one slice per year) is decomposed with the
// non-negativity constraint solved by ADMM; the example compares the
// paper's two ADMM implementations — the baseline Algorithm 2 and the
// Blocked & Fused Algorithm 3 — on identical inputs, then prints the
// non-negative word-mode components.
//
// Run with: go run ./examples/constrained
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"spstream"
)

func main() {
	stream, err := spstream.GeneratePreset("nips", 0.08)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream: dims=%v T=%d nnz=%d\n\n", stream.Dims, stream.T(), stream.NNZ())

	options := spstream.Options{
		Rank:         8,
		Constraint:   spstream.NonNeg(),
		Seed:         11,
		MaxIters:     10,
		ADMMMaxIters: 25,
	}
	// Constrained CP-stream as the paper found it (Algorithm 2 pass-per-op
	// ADMM + lock-pool MTTKRP), an experiment-side comparator …
	base, err := spstream.NewCPStreamBaseline(stream.Dims, options)
	if err != nil {
		log.Fatal(err)
	}
	tBase := run(stream, base)
	// … and with the kernels the runtime serves (Blocked & Fused ADMM +
	// contention-free MTTKRP), from the same initial factors.
	opt, err := spstream.New(stream.Dims, options)
	if err != nil {
		log.Fatal(err)
	}
	tOpt := run(stream, opt)

	fmt.Printf("baseline  constrained CP-stream: %v\n", tBase.Round(time.Millisecond))
	fmt.Printf("optimized constrained CP-stream: %v  (%.2fx)\n\n",
		tOpt.Round(time.Millisecond), float64(tBase)/float64(tOpt))

	// Both solvers enforce feasibility: every factor entry must be ≥ 0.
	for m := range stream.Dims {
		for _, v := range opt.Factor(m).Data {
			if v < 0 {
				log.Fatalf("mode %d: negative entry %g escaped the constraint", m, v)
			}
		}
	}
	fmt.Println("all factor entries are non-negative (constraint satisfied)")

	// Interpretable components: top words per component, all with
	// non-negative weights.
	words := opt.Factor(2)
	fmt.Println("\ntop words per component (word-mode factor, non-negative):")
	for k := 0; k < min(4, opt.Rank()); k++ {
		type ww struct {
			word   int
			weight float64
		}
		all := make([]ww, words.Rows)
		for i := 0; i < words.Rows; i++ {
			all[i] = ww{i, words.At(i, k)}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].weight > all[b].weight })
		fmt.Printf("  component %d:", k)
		for _, w := range all[:5] {
			fmt.Printf(" word-%d(%.3f)", w.word, w.weight)
		}
		fmt.Println()
	}

	// Sanity: the two implementations agree on the factorization. They
	// follow the same ADMM iterate sequence but the fused variant ends
	// one half-step ahead, so with a loose ADMM iteration budget the
	// factors differ by a few percent relative to their scale.
	worst := 0.0
	for m := range stream.Dims {
		f := opt.Factor(m)
		scale := 0.0
		for _, v := range f.Data {
			if v > scale {
				scale = v
			}
		}
		if scale == 0 {
			scale = 1
		}
		if d := base.Factor(m).MaxAbsDiff(f) / scale; d > worst {
			worst = d
		}
	}
	fmt.Printf("\nmax relative |baseline − optimized| factor difference: %.1f%%\n", 100*worst)
}

// run pushes every slice of the stream through dec and returns the wall
// time.
func run(stream *spstream.Stream, dec interface {
	ProcessSlice(*spstream.Tensor) (spstream.SliceResult, error)
}) time.Duration {
	start := time.Now()
	for _, x := range stream.Slices {
		if _, err := dec.ProcessSlice(x); err != nil {
			log.Fatal(err)
		}
	}
	return time.Since(start)
}
