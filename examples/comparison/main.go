// Comparison with related-work streaming methods (paper §II): CP-stream
// (spCP-stream variant) vs OnlineCP (Zhou et al., accumulation-based,
// no forgetting) vs Online-SGD (Mardani et al.).
//
// The stream undergoes a regime shift half-way: the underlying factor
// structure is replaced. CP-stream's forgetting factor lets it discard
// stale history and recover; OnlineCP keeps averaging the two regimes
// in its accumulated normal equations and never fully recovers; SGD
// recovers but is sensitive to its learning rate.
//
// Run with: go run ./examples/comparison
package main

import (
	"fmt"
	"log"

	"spstream"
	"spstream/internal/dense"
	"spstream/internal/synth"
)

const (
	dim     = 12
	nSlices = 24
	shift   = 12 // the slice where the hidden structure changes
	rank    = 4
)

func main() {
	stream := regimeShiftStream()
	dims := []int{dim, dim, dim}

	cp, err := spstream.New(dims, spstream.Options{
		Rank: rank, Algorithm: spstream.SpCPStream, Mu: 0.9, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	ocp, err := spstream.NewOnlineCP(dims, rank, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	sgd, err := spstream.NewOnlineSGD(dims, rank, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	sgd.LearningRate = 0.003
	sgd.Passes = 4

	fmt.Println("per-slice fit (higher is better):")
	fmt.Println("slice | CP-stream | OnlineCP | OnlineSGD")
	fmt.Println("------+-----------+----------+----------")
	cpDip, ocpDip, sgdDip := 1.0, 1.0, 1.0
	for t, slice := range stream.Slices {
		res, err := cp.ProcessSlice(slice)
		if err != nil {
			log.Fatal(err)
		}
		if err := ocp.ProcessSlice(slice); err != nil {
			log.Fatal(err)
		}
		if err := sgd.ProcessSlice(slice); err != nil {
			log.Fatal(err)
		}
		ocpFit := ocp.Fit(slice)
		sgdFit := sgd.Fit(slice)
		marker := ""
		if t == shift {
			marker = "   <-- regime shift"
		}
		fmt.Printf("%5d | %9.4f | %8.4f | %8.4f%s\n", t, res.Fit, ocpFit, sgdFit, marker)
		if t >= shift && t < shift+3 { // the disruption window
			cpDip = min(cpDip, res.Fit)
			ocpDip = min(ocpDip, ocpFit)
			sgdDip = min(sgdDip, sgdFit)
		}
	}
	fmt.Printf("\nworst fit during the shift window: CP-stream %.4f, OnlineCP %.4f, OnlineSGD %.4f\n",
		cpDip, ocpDip, sgdDip)
	fmt.Println("expected: CP-stream's forgetting factor absorbs the shift with a shallow")
	fmt.Println("dip; OnlineCP crashes (its accumulated history has no forgetting) and")
	fmt.Println("recovers slowly; SGD sits in between and depends on its learning rate.")
}

// regimeShiftStream generates a near-dense planted stream whose hidden
// factors are swapped for fresh ones at the shift slice.
func regimeShiftStream() *spstream.Stream {
	r := synth.NewRNG(17)
	const regimeRank = 3 // each regime is rank 3; their union exceeds the model rank
	makeFactors := func() []*dense.Matrix {
		out := make([]*dense.Matrix, 3)
		for m := range out {
			f := dense.NewMatrix(dim, regimeRank)
			for i := range f.Data {
				f.Data[i] = r.Float64() + 0.2
			}
			out[m] = f
		}
		return out
	}
	regimeA := makeFactors()
	regimeB := makeFactors()
	stream := &spstream.Stream{Dims: []int{dim, dim, dim}}
	for t := 0; t < nSlices; t++ {
		factors := regimeA
		if t >= shift {
			factors = regimeB
		}
		// Dense slices: every coordinate carries its planted value plus
		// noise, so the achievable fit is limited only by model rank.
		slice := spstream.NewTensor(dim, dim, dim)
		for i := int32(0); i < dim; i++ {
			for j := int32(0); j < dim; j++ {
				for l := int32(0); l < dim; l++ {
					val := 0.0
					for k := 0; k < regimeRank; k++ {
						val += factors[0].At(int(i), k) * factors[1].At(int(j), k) * factors[2].At(int(l), k)
					}
					slice.Append([]int32{i, j, l}, val+0.01*r.NormFloat64())
				}
			}
		}
		stream.Slices = append(stream.Slices, slice)
	}
	return stream
}
