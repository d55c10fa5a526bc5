package sim

import (
	"testing"

	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// uniformRows returns n row targets spread uniformly over dim rows.
func uniformRows(n, dim int, seed uint64) []int32 {
	r := synth.NewRNG(seed)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Intn(dim))
	}
	return out
}

func baseSim(p int) LockSim {
	return LockSim{Threads: p, PoolSize: 1024, WorkNs: 30, UpdateNs: 4, LockNs: 18, ContendNs: 150}
}

// With uniform targets over many rows, the simulator scales well.
func TestEventSimScalesOnUniformRows(t *testing.T) {
	rows := uniformRows(100000, 50000, 1)
	t1 := baseSim(1).Run(rows)
	t16 := baseSim(16).Run(rows)
	if t16 >= t1/6 {
		t.Fatalf("uniform rows: 16 threads only improved %0.1fx", t1/t16)
	}
}

// With a single output row (the streaming mode), adding threads does
// not help and eventually hurts — the contention collapse of Fig. 4.
func TestEventSimSingleRowSerializes(t *testing.T) {
	rows := make([]int32, 100000) // all updates to row 0
	t1 := baseSim(1).Run(rows)
	t32 := baseSim(32).Run(rows)
	if t32 < t1*0.8 {
		t.Fatalf("single hot row should not speed up: 1thr=%g 32thr=%g", t1, t32)
	}
}

// A hot row (20% of updates) caps scaling well below the uniform case.
func TestEventSimHotRowCapsScaling(t *testing.T) {
	r := synth.NewRNG(3)
	hot := make([]int32, 100000)
	for i := range hot {
		if r.Float64() < 0.2 {
			hot[i] = 0
		} else {
			hot[i] = int32(r.Intn(50000))
		}
	}
	uniform := uniformRows(100000, 50000, 4)
	hotGain := baseSim(1).Run(hot) / baseSim(32).Run(hot)
	uniGain := baseSim(1).Run(uniform) / baseSim(32).Run(uniform)
	if hotGain >= uniGain {
		t.Fatalf("hot-row scaling (%.1fx) should trail uniform (%.1fx)", hotGain, uniGain)
	}
}

func TestEventSimDefaults(t *testing.T) {
	// Zero-valued knobs fall back to sane defaults without panicking.
	s := LockSim{WorkNs: 10, UpdateNs: 1, LockNs: 5, ContendNs: 20}
	if v := s.Run(uniformRows(1000, 100, 9)); v <= 0 {
		t.Fatalf("sim time %g", v)
	}
	if v := s.Run(nil); v != 0 {
		t.Fatalf("empty run time %g", v)
	}
}

func TestSimulateLockMTTKRPOnTinySlice(t *testing.T) {
	x := sptensor.New(4, 4)
	x.Append([]int32{0, 1}, 1)
	x.Append([]int32{0, 2}, 1)
	mo := PaperModel()
	if v := mo.SimulateLockMTTKRP(x, 0, 8, 4); v <= 0 {
		t.Fatalf("tiny slice sim time %g", v)
	}
}

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
	mo := PaperModel()
	prof := perfmodel.Profile(x)
	// Mode 2 (words) is the skewed long mode.
	simLock56 := mo.SimulateLockMTTKRP(x, 2, 16, 56)
	simLock1 := mo.SimulateLockMTTKRP(x, 2, 16, 1)
	modelLock56 := mo.MTTKRPModeTime(MTTKRPLock, prof, 2, 16, 56)
	modelLock1 := mo.MTTKRPModeTime(MTTKRPLock, prof, 2, 16, 1)
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
