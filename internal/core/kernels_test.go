package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/perfmodel"
	"spstream/internal/synth"
)

// Every kernel policy computes the same MTTKRP — only the schedule
// (and hence floating-point rounding order) differs — so forcing any
// of them must leave the factor trajectory unchanged to FP noise.
func TestKernelPoliciesEquivalent(t *testing.T) {
	s := skewedStream(t, 117)
	ref, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 4, Workers: 2, MTTKRPKernel: KernelPlan})
	for _, k := range []MTTKRPKernel{KernelAuto, KernelCSF} {
		got, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 4, Workers: 2, MTTKRPKernel: k})
		if d := maxFactorDiff(ref, got); d > 1e-8 {
			t.Fatalf("policy %v changed results by %g", k, d)
		}
	}
}

// The spCP-stream path dispatches through the same kernel table over
// the remapped slice; forcing CSF there must match the plan run too.
func TestKernelPoliciesEquivalentSpCP(t *testing.T) {
	s := skewedStream(t, 118)
	ref, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 4, Workers: 2, MTTKRPKernel: KernelPlan})
	for _, k := range []MTTKRPKernel{KernelAuto, KernelCSF} {
		got, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 4, Workers: 2, MTTKRPKernel: k})
		if d := maxFactorDiff(ref, got); d > 1e-8 {
			t.Fatalf("spCP policy %v changed results by %g", k, d)
		}
	}
}

// An Options literal that names nothing but the rank gets what the
// daemon serves: Optimized, the cost-model kernel selection — and a
// schedule of compiled kernels only.
func TestKernelPolicyDefaults(t *testing.T) {
	s := skewedStream(t, 116)
	d, err := NewDecomposer(s.Dims, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Algorithm() != Optimized || d.MTTKRPKernel() != KernelAuto {
		t.Fatalf("zero-value options resolve to %v / %v", d.Algorithm(), d.MTTKRPKernel())
	}
	if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	sched := string(d.KernelSchedule(nil))
	if len(sched) != len(s.Dims) || strings.Trim(sched, "PC") != "" {
		t.Fatalf("kernel schedule %q, want one of P/C per mode", sched)
	}
}

// TestLayoutOptionInert: Options.Layout survives only so bench/ compiles
// (compat.go). On the skewed stream the explicit body used to remap,
// both values give the same bits — factors, sₜ and kernel schedule —
// and no slice reports a remap.
func TestLayoutOptionInert(t *testing.T) {
	s := remapStream(t, 405, 3)
	for _, con := range []admm.Constraint{nil, admm.NonNeg{}} {
		for _, workers := range []int{1, 2} {
			var ds [2]*Decomposer
			var scheds [2][]byte
			for i, layout := range []LayoutPolicy{LayoutAuto, LayoutOff} {
				d, err := NewDecomposer(s.Dims, Options{Rank: 4, Constraint: con, Workers: workers, Seed: 5, MaxIters: 4, ADMMMaxIters: 8, Layout: layout})
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range s.Slices {
					scheds[i] = scheduleTrace(t, d, x, scheds[i])
					if rm, hot := d.LastLayoutDecision(); rm || hot {
						t.Fatalf("layout %d: slice reports a layout decision %v/%v", layout, rm, hot)
					}
				}
				ds[i] = d
			}
			name := fmt.Sprintf("con=%v workers=%d", con != nil, workers)
			if !bytes.Equal(scheds[0], scheds[1]) || len(scheds[0]) == 0 {
				t.Fatalf("%s: kernel schedules %q and %q", name, scheds[0], scheds[1])
			}
			for m := range s.Dims {
				sameMatrixBits(t, fmt.Sprintf("%s factor %d", name, m), ds[0].a[m], ds[1].a[m])
			}
			sameMatrixBits(t, name+" temporal", ds[0].Temporal(), ds[1].Temporal())
		}
	}
}

// chooseKernels obeys forced policies exactly and reports the layouts
// the slice needs.
func TestChooseKernelsForced(t *testing.T) {
	s := skewedStream(t, 119)
	x := s.Slices[0]
	d, err := NewDecomposer(s.Dims, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy            MTTKRPKernel
		want              perfmodel.MTTKRPKind
		needPlan, needCSF bool
	}{
		{KernelPlan, perfmodel.MTTKRPPlan, true, false},
		{KernelCSF, perfmodel.MTTKRPCSF, false, true},
	} {
		if err := d.SetMTTKRPKernel(tc.policy); err != nil {
			t.Fatal(err)
		}
		needPlan, needCSF := d.chooseKernels(x)
		if needPlan != tc.needPlan || needCSF != tc.needCSF {
			t.Fatalf("%v: need = (%v,%v), want (%v,%v)", tc.policy, needPlan, needCSF, tc.needPlan, tc.needCSF)
		}
		for m, kc := range d.kernels {
			if kc != tc.want {
				t.Fatalf("%v: mode %d resolved to %v", tc.policy, m, kc)
			}
		}
	}
}

// Auto selection is a pure function of the slice and the options —
// resolving the same slice twice must give the same table (the
// checkpoint-restore bit-identity guarantee depends on this).
func TestChooseKernelsDeterministic(t *testing.T) {
	s := skewedStream(t, 120)
	d, err := NewDecomposer(s.Dims, Options{Rank: 3, Algorithm: Optimized})
	if err != nil {
		t.Fatal(err)
	}
	d.chooseKernels(s.Slices[0])
	first := append([]perfmodel.MTTKRPKind(nil), d.kernels...)
	// Resolve other slices in between, then the original again.
	d.chooseKernels(s.Slices[1])
	d.chooseKernels(s.Slices[0])
	for m, kc := range d.kernels {
		if kc != first[m] {
			t.Fatalf("mode %d: choice changed from %v to %v on re-resolution", m, first[m], kc)
		}
	}
	// And the underlying selector is itself deterministic.
	var prof perfmodel.SliceProfile
	perfmodel.ProfileInto(&prof, s.Slices[0], nil)
	sel := perfmodel.NewSelector(2)
	for m := range s.Dims {
		a := sel.SelectMTTKRP(prof, m, 3, 8)
		b := sel.SelectMTTKRP(prof, m, 3, 8)
		if a != b {
			t.Fatalf("selector not deterministic for mode %d", m)
		}
	}
}

// On the repo benchmark's nips slices the auto schedule is a function of
// the slice, not of the worker count: all plan at Workers 1 and 2, for
// one inner iteration and for twenty. With no kernel pinned, factors, sₜ
// and G are then bit-equal across the two widths.
func TestAutoScheduleNipsWorkerIndependent(t *testing.T) {
	cfg, err := synth.Preset("nips", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.T = 2
	s, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, iters := range []int{1, 20} {
		var ref *Decomposer
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("MaxIters=%d W=%d", iters, workers)
			d, err := NewDecomposer(s.Dims, Options{Rank: 16, Workers: workers, MaxIters: iters, Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			var sched []byte
			for _, x := range s.Slices {
				sched = scheduleTrace(t, d, x, sched)
			}
			if got := string(sched); got != "PPP|PPP|" {
				t.Fatalf("%s: kernel schedule %q, want PPP on both slices", name, got)
			}
			if ref == nil {
				ref = d
				continue
			}
			for n := range s.Dims {
				sameMatrixBits(t, fmt.Sprintf("%s factor %d", name, n), d.Factor(n), ref.Factor(n))
			}
			sameMatrixBits(t, name+" temporal", d.Temporal(), ref.Temporal())
			sameMatrixBits(t, name+" G", d.TemporalGram(), ref.TemporalGram())
		}
	}
}

// SetMTTKRPKernel validates its argument and switches take effect on
// the next slice.
func TestSetMTTKRPKernel(t *testing.T) {
	s := skewedStream(t, 121)
	d, err := NewDecomposer(s.Dims, Options{Rank: 3, Algorithm: Optimized})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetMTTKRPKernel(KernelCSF + 1); err == nil {
		t.Fatal("out-of-range policy accepted")
	}
	if got := d.MTTKRPKernel(); got != KernelAuto {
		t.Fatalf("failed Set changed the policy to %v", got)
	}
	for _, k := range []MTTKRPKernel{KernelCSF, KernelPlan, KernelAuto} {
		if err := d.SetMTTKRPKernel(k); err != nil {
			t.Fatal(err)
		}
		if got := d.MTTKRPKernel(); got != k {
			t.Fatalf("MTTKRPKernel() = %v after Set(%v)", got, k)
		}
		if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
			t.Fatalf("slice under policy %v: %v", k, err)
		}
	}
}

// An out-of-range policy or algorithm in Options must be rejected at
// construction, and by SetAlgorithm, which validates through the same
// check.
func TestOptionsRejectUnknownKernel(t *testing.T) {
	dims := []int{10, 12}
	if _, err := NewDecomposer(dims, Options{Rank: 2, MTTKRPKernel: KernelCSF + 1}); err == nil {
		t.Fatal("NewDecomposer accepted an unknown MTTKRPKernel")
	}
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
