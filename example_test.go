package spstream_test

import (
	"fmt"
	"log"
	"slices"

	"spstream"
)

// ExampleNew demonstrates the basic streaming decomposition loop.
func ExampleNew() {
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := spstream.New(stream.Dims, spstream.Options{
		Rank:      4,
		Algorithm: spstream.SpCPStream,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The decomposer keeps only the latest temporal row; the caller
	// collects the temporal factor S, one row per committed slice.
	var s [][]float64
	for t := 0; t < 3; t++ {
		if _, err := dec.ProcessSlice(stream.Slices[t]); err != nil {
			log.Fatal(err)
		}
		s = append(s, slices.Clone(dec.LastS()))
	}
	fmt.Println("slices processed:", dec.T())
	fmt.Println("temporal factor rows:", len(s))
	// Output:
	// slices processed: 3
	// temporal factor rows: 3
}

// ExampleSplitStream shows how a 3-way tensor becomes a stream of 2-way
// slices along its last (time) mode.
func ExampleSplitStream() {
	tensor := spstream.NewTensor(4, 5, 3)
	tensor.Append([]int32{0, 1, 0}, 1.0)
	tensor.Append([]int32{2, 3, 2}, 2.0)
	stream, err := spstream.SplitStream(tensor, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("time steps:", stream.T())
	fmt.Println("slice dims:", stream.Dims)
	fmt.Println("slice 2 nonzeros:", stream.Slices[2].NNZ())
	// Output:
	// time steps: 3
	// slice dims: [4 5]
	// slice 2 nonzeros: 1
}

// ExampleTopRows extracts the strongest rows of a component — the
// "top terms of a topic" operation of the trending example.
func ExampleTopRows() {
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := spstream.New(stream.Dims, spstream.Options{Rank: 4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := dec.ProcessSlice(stream.Slices[0]); err != nil {
		log.Fatal(err)
	}
	top := spstream.TopRows(dec, 1, 0, 3) // mode 1, component 0, top 3
	fmt.Println("rows returned:", len(top))
	fmt.Println("sorted:", top[0].Weight >= top[1].Weight && top[1].Weight >= top[2].Weight)
	// Output:
	// rows returned: 3
	// sorted: true
}
