package core

import (
	"fmt"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/synth"
)

// TestApplyZTransformMatchesDotProducts pins the column-blocked z-row
// transform to the form it replaced — one dot product per column, down
// the column of T — bit for bit, at ranks on both sides of the block
// width, for several worker counts, and checks that the nz rows are
// left alone and the shared mask comes back clear.
func TestApplyZTransformMatchesDotProducts(t *testing.T) {
	const rows = 37
	for _, k := range []int{1, 3, 4, 6, 16, 17} {
		for _, workers := range []int{1, 2, 5} {
			d, err := NewDecomposer([]int{rows, 9}, Options{Rank: k, Algorithm: SpCPStream, Workers: workers, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rng := synth.NewRNG(uint64(100*k + workers))
			a := dense.NewMatrix(rows, k)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
			}
			tr := dense.NewMatrix(k, k)
			for i := range tr.Data {
				tr.Data[i] = rng.NormFloat64()
			}
			nz := []int32{0, 5, 6, 20, rows - 1}

			want := a.Clone()
			skip := make(map[int32]bool)
			for _, i := range nz {
				skip[i] = true
			}
			tmp := make([]float64, k)
			for i := 0; i < rows; i++ {
				if skip[int32(i)] {
					continue
				}
				row := want.Row(i)
				for j := 0; j < k; j++ {
					sum := 0.0
					for p := 0; p < k; p++ {
						sum += row[p] * tr.Data[p*tr.Stride+j]
					}
					tmp[j] = sum
				}
				copy(row, tmp)
			}

			// Into a spare whose nz rows the scatter would write (here
			// already a's), and in place.
			isNZ := d.markNZ(rows, nz)
			spare := a.Clone()
			if d.applyZTransform(spare, a, isNZ, tr) || d.applyZTransform(a, a, isNZ, tr) {
				t.Fatal("unconstrained transform reported a projection")
			}
			d.unmarkNZ(nz)
			sameMatrixBits(t, fmt.Sprintf("k=%d workers=%d in place", k, workers), a, want)
			sameMatrixBits(t, fmt.Sprintf("k=%d workers=%d into the spare", k, workers), spare, want)
			for i, set := range d.isNZ {
				if set {
					t.Fatalf("k=%d: mask row %d left set", k, i)
				}
			}
		}
	}
}
