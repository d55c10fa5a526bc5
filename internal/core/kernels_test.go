package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/dense"
	"spstream/internal/synth"
)

// An Options literal that names nothing but the rank gets what the
// daemon serves: Optimized, and the compiled plan on every mode.
func TestKernelPolicyDefaults(t *testing.T) {
	s := skewedStream(t, 116)
	d, err := NewDecomposer(s.Dims, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Algorithm() != Optimized {
		t.Fatalf("zero-value options resolve to %v", d.Algorithm())
	}
	if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	if sched := string(d.KernelSchedule(nil)); sched != strings.Repeat("P", len(s.Dims)) {
		t.Fatalf("kernel schedule %q, want P on every mode", sched)
	}
}

// TestLayoutOptionInert: Options.Layout and Options.MTTKRPKernel survive
// only so bench/ compiles (compat.go). On the skewed stream the explicit
// body used to remap, every combination of their values gives the same
// bits — factors, sₜ and kernel schedule — and no slice reports a remap.
func TestLayoutOptionInert(t *testing.T) {
	s := remapStream(t, 405, 3)
	for _, con := range []admm.Constraint{nil, admm.NonNeg{}} {
		for _, workers := range []int{1, 2} {
			var ds []*Decomposer
			var scheds [][]byte
			for _, layout := range []LayoutPolicy{LayoutAuto, LayoutOff} {
				for _, kernel := range []MTTKRPKernel{0, KernelPlan} {
					d, err := NewDecomposer(s.Dims, Options{Rank: 4, Constraint: con, Workers: workers, Seed: 5, MaxIters: 4, ADMMMaxIters: 8, Layout: layout, MTTKRPKernel: kernel})
					if err != nil {
						t.Fatal(err)
					}
					var sched []byte
					for _, x := range s.Slices {
						sched = scheduleTrace(t, d, x, sched)
						if rm, hot := d.LastLayoutDecision(); rm || hot {
							t.Fatalf("layout %d: slice reports a layout decision %v/%v", layout, rm, hot)
						}
					}
					ds, scheds = append(ds, d), append(scheds, sched)
				}
			}
			for i := 1; i < len(ds); i++ {
				name := fmt.Sprintf("con=%v workers=%d option set %d", con != nil, workers, i)
				if !bytes.Equal(scheds[0], scheds[i]) || len(scheds[0]) == 0 {
					t.Fatalf("%s: kernel schedules %q and %q", name, scheds[0], scheds[i])
				}
				for m := range s.Dims {
					sameMatrixBits(t, fmt.Sprintf("%s factor %d", name, m), ds[0].Factor(m), ds[i].Factor(m))
				}
				sameMatrixBits(t, name+" temporal", ds[0].Temporal(), ds[i].Temporal())
			}
		}
	}
}

// On slice 0 of paperbench's skewed config (seed 17) the removed
// plan-vs-CSF cost model resolved CCC at K = 16, and CPP at one worker
// but PPP at two at K = 32, so the two widths' factors parted in their
// last bits. The schedule is the plan on every mode, at any width, and
// factors, sₜ and G are bit-equal at Workers 1 and 2.
func TestScheduleSkewedWorkerIndependent(t *testing.T) {
	x, err := synth.GenerateSlice(synth.Config{
		Name: "skewed",
		Dists: []synth.IndexDist{
			synth.NewZipf(40000, 1.1),
			synth.Clustered{N: 60000, Window: 1500, Drift: 900, Revisit: 0.2},
			synth.NewZipf(50000, 1.05),
		},
		T:           1,
		NNZPerSlice: 200000,
		Seed:        17,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{16, 32} {
		// The W = 1 run's factors, sₜ and G; only one Decomposer at a
		// time holds the 150 000 × K factor state.
		var ref []*dense.Matrix
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("K=%d W=%d", k, workers)
			d, err := NewDecomposer(x.Dims, Options{Rank: k, Workers: workers, Seed: 9, MaxIters: 4, Tol: 0})
			if err != nil {
				t.Fatal(err)
			}
			if got := string(scheduleTrace(t, d, x, nil)); got != "PPP|" {
				t.Fatalf("%s: kernel schedule %q, want PPP", name, got)
			}
			got := []*dense.Matrix{d.Temporal(), d.TemporalGram()}
			for n := range x.Dims {
				got = append(got, d.Factor(n))
			}
			if ref == nil {
				for _, m := range got {
					ref = append(ref, m.Clone())
				}
				continue
			}
			for i := range ref {
				sameMatrixBits(t, fmt.Sprintf("%s matrix %d (sₜ, G, factors)", name, i), got[i], ref[i])
			}
		}
	}
}

// An out-of-range algorithm in Options must be rejected at construction,
// and by SetAlgorithm, which validates through the same check.
func TestOptionsRejectUnknownAlgorithm(t *testing.T) {
	dims := []int{10, 12}
	for _, a := range []Algorithm{-1, SpCPStream + 1, 7} {
		if _, err := NewDecomposer(dims, Options{Rank: 2, Algorithm: a}); err == nil {
			t.Fatalf("NewDecomposer accepted Algorithm %d", int(a))
		}
	}
	d, err := NewDecomposer(dims, Options{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetAlgorithm(7); err == nil || d.Algorithm() != Optimized {
		t.Fatalf("SetAlgorithm(7): err %v, algorithm now %v", err, d.Algorithm())
	}
}

// The one -alg parser of cpstream, watch and spstreamd: two names, and an
// error that lists them.
func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"optimized", Optimized, true},
		{"spcp", SpCPStream, true},
		{"baseline", 0, false}, // an experiment (internal/baselines), not a runtime option
		{"spcp-stream", 0, false},
		{"Optimized", 0, false},
		{"", 0, false},
	} {
		got, err := ParseAlgorithm(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", tc.in, got, err)
		}
		if err != nil && !(strings.Contains(err.Error(), "optimized") && strings.Contains(err.Error(), "spcp")) {
			t.Errorf("ParseAlgorithm(%q) error %q does not list the valid names", tc.in, err)
		}
	}
}
