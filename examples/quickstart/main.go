// Quickstart: decompose a synthetic streaming tensor with spCP-stream
// and print per-slice convergence.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"slices"

	"spstream"
)

func main() {
	// A scaled-down analogue of the NIPS dataset: slices of a
	// paper × author × word tensor arriving year by year.
	stream, err := spstream.GeneratePreset("nips", 0.1)
	if err != nil {
		log.Fatal(err)
	}

	dec, err := spstream.New(stream.Dims, spstream.Options{
		Rank:      16,
		Algorithm: spstream.SpCPStream, // the paper's fast non-constrained algorithm
	})
	if err != nil {
		log.Fatal(err)
	}

	// The decomposer keeps only the latest temporal row sₜ; the caller
	// collects S, one row per committed slice.
	var s [][]float64
	results, err := dec.ProcessStream(stream.Source(), func(r spstream.SliceResult) {
		fmt.Printf("slice %2d: %6d nnz, %2d iterations, delta %.5f, fit %.4f\n",
			r.T, r.NNZ, r.Iters, r.Delta, r.Fit)
		if !r.Skipped {
			s = append(s, slices.Clone(dec.LastS()))
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// The model after T slices is {A⁽¹⁾,…,A⁽ᴺ⁾, S}: one factor matrix
	// per mode plus the temporal factor with one row per slice.
	fmt.Printf("\nprocessed %d slices\n", len(results))
	for m := range stream.Dims {
		f := dec.Factor(m)
		fmt.Printf("mode %d factor: %d×%d\n", m, f.Rows, f.Cols)
	}
	fmt.Printf("temporal factor: %d×%d\n", len(s), dec.Rank())
}
