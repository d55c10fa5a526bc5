package core

import (
	"fmt"
	"math"
	"testing"
)

// Golden regression test: a fixed small stream through every algorithm
// must keep producing the same summary statistics (rounded to absorb
// architecture-level FMA differences). This guards the numerical core
// against silent drift from refactoring — if an intentional algorithm
// change moves these values, regenerate them with -run Golden -v and
// update the table alongside the change.
func TestGoldenTrajectories(t *testing.T) {
	golden := map[Algorithm][]string{
		Optimized:  {"fit=0.6695 iters=20", "fit=0.5551 iters=20", "fit=0.5442 iters=20"},
		SpCPStream: {"fit=0.6695 iters=20", "fit=0.5551 iters=20", "fit=0.5442 iters=20"},
	}
	s := testStream(t, 777, []int{8, 9, 7}, 1500, 3)
	for alg, want := range golden {
		d, err := NewDecomposer(s.Dims, Options{
			Rank: 4, Algorithm: alg, Seed: 11, Workers: 1, TrackFit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for ti, x := range s.Slices {
			res, err := d.ProcessSlice(x)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			got := fmt.Sprintf("fit=%.4f iters=%d", round4(res.Fit), res.Iters)
			if got != want[ti] {
				t.Fatalf("%v slice %d: got %q want %q (if the change is intentional, update the golden table)",
					alg, ti, got, want[ti])
			}
		}
	}
}

func round4(v float64) float64 {
	return math.Round(v*1e4) / 1e4
}
