package perfmodel

import (
	"testing"

	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// ProfileInto allocates nothing once its buffers have grown.
func TestProfileIntoZeroAlloc(t *testing.T) {
	s, err := synth.Generate(synth.Config{
		Name:        "prof",
		Dists:       []synth.IndexDist{synth.Uniform{N: 40}, synth.Uniform{N: 300}, synth.Uniform{N: 200}},
		T:           3,
		NNZPerSlice: 2000,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p SliceProfile
	var counts []int32
	for _, x := range s.Slices {
		counts = ProfileInto(&p, x, counts)
	}
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		counts = ProfileInto(&p, s.Slices[i%len(s.Slices)], counts)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProfileInto allocates %v times", allocs)
	}
	// Cross-check one profile against the allocating Profile.
	want := Profile(s.Slices[len(s.Slices)-1])
	counts = ProfileInto(&p, s.Slices[len(s.Slices)-1], counts)
	if p.NNZ != want.NNZ || len(p.Modes) != len(want.Modes) {
		t.Fatal("ProfileInto disagrees with Profile on shape")
	}
	for m := range want.Modes {
		if p.Modes[m] != want.Modes[m] {
			t.Fatalf("mode %d: ProfileInto %+v ≠ Profile %+v", m, p.Modes[m], want.Modes[m])
		}
	}
}

func TestProfileMeasurement(t *testing.T) {
	x := sptensor.New(10, 20)
	x.Append([]int32{1, 2}, 1)
	x.Append([]int32{1, 3}, 1)
	x.Append([]int32{4, 2}, 1)
	p := Profile(x)
	if p.NNZ != 3 || len(p.Modes) != 2 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Modes[0].NZRows != 2 || p.Modes[0].Dim != 10 {
		t.Fatalf("mode 0 = %+v", p.Modes[0])
	}
	if p.Modes[0].TopRowFrac != 2.0/3 {
		t.Fatalf("top row frac = %v", p.Modes[0].TopRowFrac)
	}
	if p.TotalDim() != 30 || p.TotalNZRows() != 4 {
		t.Fatalf("totals wrong: dim=%d nz=%d", p.TotalDim(), p.TotalNZRows())
	}
}
