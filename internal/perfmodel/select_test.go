package perfmodel

import (
	"testing"

	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// profileOf builds a SliceProfile by hand: dims and per-mode nz-row
// counts, one synthetic top-row fraction.
func profileOf(nnz int, dims, nzRows []int) SliceProfile {
	p := SliceProfile{NNZ: nnz}
	for m := range dims {
		p.Modes = append(p.Modes, ModeProfile{Dim: dims[m], NZRows: nzRows[m], TopRowFrac: 0.01})
	}
	return p
}

// A tiny slice amortized over a single iteration must pick the plan:
// the CSF build (N radix passes per tree) cannot pay for itself.
func TestSelectTinySlicePrefersPlan(t *testing.T) {
	sel := NewSelector(1)
	p := profileOf(500, []int{8, 9, 7}, []int{8, 9, 7})
	for m := range p.Modes {
		if got := sel.SelectMTTKRP(p, m, 4, 1); got != MTTKRPPlan {
			t.Fatalf("mode %d: tiny slice selected %v, want plan", m, got)
		}
	}
}

// A duplicate-heavy slice — far fewer distinct coordinate prefixes than
// nonzeros — is CSF's best case: the fiber tree collapses the shared
// prefixes, so with enough iterations to amortize the build the
// selector must route at least one mode to CSF.
func TestSelectDupHeavyPrefersCSF(t *testing.T) {
	sel := NewSelector(1)
	p := profileOf(300000, []int{24, 1100, 1700}, []int{24, 1100, 1700})
	picked := false
	for m := range p.Modes {
		if sel.SelectMTTKRP(p, m, 32, 8) == MTTKRPCSF {
			picked = true
		}
	}
	if !picked {
		t.Fatal("dup-heavy 300k-nnz slice never selected CSF at rank 32")
	}
}

// Prediction sanity: more workers must not increase predicted kernel
// times, and both predictions grow with rank.
func TestSelectorPredictionsMonotone(t *testing.T) {
	p := profileOf(100000, []int{100, 2000, 3000}, []int{100, 1800, 2500})
	s1, s4 := NewSelector(1), NewSelector(4)
	for m := range p.Modes {
		if s4.PlanModeTime(p, m, 16) > s1.PlanModeTime(p, m, 16) {
			t.Fatalf("mode %d: plan prediction grew with workers", m)
		}
		if s4.CSFModeTime(p, m, 16) > s1.CSFModeTime(p, m, 16) {
			t.Fatalf("mode %d: CSF prediction grew with workers", m)
		}
		if s1.PlanModeTime(p, m, 64) <= s1.PlanModeTime(p, m, 8) {
			t.Fatalf("mode %d: plan prediction not increasing in rank", m)
		}
		if s1.CSFModeTime(p, m, 64) <= s1.CSFModeTime(p, m, 8) {
			t.Fatalf("mode %d: CSF prediction not increasing in rank", m)
		}
	}
}

// distinct() is the birthday estimate: bounded by both the draw count
// and the space, and exact in the space-≫-draws limit.
func TestDistinctEstimate(t *testing.T) {
	if d := distinct(10, 1e9); d > 10 {
		t.Fatalf("distinct exceeded the space: %g", d)
	}
	if d := distinct(1e12, 100); d > 100 || d < 99 {
		t.Fatalf("sparse-regime distinct = %g, want ≈100", d)
	}
	if d := distinct(50, 0); d != 0 {
		t.Fatalf("distinct(_, 0) = %g", d)
	}
	if d := distinct(0, 5); d != 1 {
		t.Fatalf("distinct(0, n) = %g, want clamp to 1", d)
	}
}

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
