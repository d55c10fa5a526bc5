// The test in this file exercises the paper-figure simulator in the
// sub-package sim. The simulator's tests move into that package a few
// at a time (ROADMAP item 11(c)); the lock simulator's own tests are
// there already, in eventsim_test.go.
package perfmodel_test

import (
	"testing"

	"spstream/internal/perfmodel"
	"spstream/internal/perfmodel/sim"
	"spstream/internal/synth"
)

// The event simulator and the closed-form model must agree on the
// qualitative verdict for the same slice: HL-style local accumulation
// beats the locked path at high thread counts on a skewed mode.
func TestEventSimAgreesWithClosedForm(t *testing.T) {
	cfg, err := synth.Preset("nips", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := st.Slices[2]
	mo := sim.PaperModel()
	prof := perfmodel.Profile(x)
	// Mode 2 (words) is the skewed long mode.
	simLock56 := mo.SimulateLockMTTKRP(x, 2, 16, 56)
	simLock1 := mo.SimulateLockMTTKRP(x, 2, 16, 1)
	modelLock56 := mo.MTTKRPModeTime(sim.MTTKRPLock, prof, 2, 16, 56)
	modelLock1 := mo.MTTKRPModeTime(sim.MTTKRPLock, prof, 2, 16, 1)
	// Both must agree that 56 threads help substantially but fall short
	// of ideal 56× scaling on this mildly skewed mode, and they must
	// agree with each other within a factor of ~2.5.
	simGain := simLock1 / simLock56
	modelGain := modelLock1 / modelLock56
	if simGain >= 56 || modelGain >= 56 {
		t.Fatalf("lock path scaling too ideal: sim %.1fx model %.1fx", simGain, modelGain)
	}
	if simGain < 5 || modelGain < 5 {
		t.Fatalf("lock path scaling collapsed unexpectedly: sim %.1fx model %.1fx", simGain, modelGain)
	}
	ratio := simGain / modelGain
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("sim and closed form disagree: sim %.1fx model %.1fx", simGain, modelGain)
	}
}
