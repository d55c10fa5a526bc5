package spstream_test

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"spstream"
	"spstream/internal/synth"
)

func TestQuickstartFlow(t *testing.T) {
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := spstream.New(stream.Dims, spstream.Options{
		Rank:      4,
		Algorithm: spstream.SpCPStream,
		TrackFit:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	results, err := dec.ProcessStream(stream.Source(), func(spstream.SliceResult) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != stream.T() || calls != stream.T() {
		t.Fatalf("processed %d slices, callback %d times, want %d", len(results), calls, stream.T())
	}
	if dec.T() != stream.T() {
		t.Fatal("decomposer slice counter wrong")
	}
	for m := range stream.Dims {
		f := dec.Factor(m)
		if f.Rows != stream.Dims[m] || f.Cols != 4 {
			t.Fatalf("factor %d shape %d×%d", m, f.Rows, f.Cols)
		}
		if f.HasNaN() {
			t.Fatal("NaN in factors")
		}
	}
	if s := dec.Temporal(); s.Rows != stream.T() || s.Cols != 4 {
		t.Fatalf("temporal shape %d×%d", s.Rows, s.Cols)
	}
}

func TestAllAlgorithmsViaFacade(t *testing.T) {
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"optimized", "spcp"} {
		alg, err := spstream.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := spstream.New(stream.Dims, spstream.Options{Rank: 3, Algorithm: alg, MaxIters: 5})
		if err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < 3; ti++ {
			if _, err := dec.ProcessSlice(stream.Slices[ti]); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		}
	}
	// The paper's unoptimized baseline is a comparator beside OnlineCP,
	// not an Algorithm.
	if _, err := spstream.ParseAlgorithm("baseline"); err == nil {
		t.Fatal("baseline accepted as a runtime algorithm")
	}
	base, err := spstream.NewCPStreamBaseline(stream.Dims, spstream.Options{Rank: 3, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 3; ti++ {
		if _, err := base.ProcessSlice(stream.Slices[ti]); err != nil {
			t.Fatalf("baseline: %v", err)
		}
	}
}

func TestConstraintsViaFacade(t *testing.T) {
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, con := range []spstream.Constraint{spstream.NonNeg(), spstream.L1(0.01), spstream.NonNegMaxColNorm(100)} {
		dec, err := spstream.New(stream.Dims, spstream.Options{
			Rank: 3, Algorithm: spstream.Optimized, Constraint: con, MaxIters: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.ProcessSlice(stream.Slices[0]); err != nil {
			t.Fatalf("%s: %v", con.Name(), err)
		}
	}
}

func TestTNSRoundTripViaFacade(t *testing.T) {
	orig := spstream.NewTensor(4, 5, 3)
	orig.Append([]int32{0, 1, 2}, 1.5)
	orig.Append([]int32{3, 4, 0}, -2.5)
	path := t.TempDir() + "/x.tns"
	if err := spstream.SaveTNS(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := spstream.LoadTNS(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 2 {
		t.Fatal("round trip lost nonzeros")
	}
	// ReadTNS with explicit dims.
	r := strings.NewReader("1 2 3 1.5\n")
	tt, err := spstream.ReadTNS(r, []int{4, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tt.Dims[0] != 4 {
		t.Fatal("dims ignored")
	}
}

func TestSplitStreamViaFacade(t *testing.T) {
	tensor := spstream.NewTensor(4, 5, 6)
	tensor.Append([]int32{1, 2, 3}, 1)
	tensor.Append([]int32{2, 2, 0}, 2)
	stream, err := spstream.SplitStream(tensor, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stream.T() != 6 || len(stream.Dims) != 2 {
		t.Fatalf("split shape: T=%d dims=%v", stream.T(), stream.Dims)
	}
}

func TestGenerateCustomConfig(t *testing.T) {
	stream, err := spstream.Generate(spstream.SynthConfig{
		Name:        "custom",
		Dists:       []synth.IndexDist{synth.Uniform{N: 10}, synth.Uniform{N: 12}},
		T:           3,
		NNZPerSlice: 50,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.T() != 3 {
		t.Fatal("custom generation wrong")
	}
}

func TestPresetNames(t *testing.T) {
	names := spstream.PresetNames()
	if len(names) != 4 {
		t.Fatalf("presets: %v", names)
	}
	for _, n := range names {
		if _, err := spstream.GeneratePreset(n, 0.05); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := spstream.GeneratePreset("bogus", 1); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

func TestSaveFactors(t *testing.T) {
	stream, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := spstream.New(stream.Dims, spstream.Options{Rank: 2, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ProcessSlice(stream.Slices[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spstream.WriteFactorsTNS(&buf, dec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	wantRows := 0
	for _, d := range stream.Dims {
		wantRows += d
	}
	if lines < wantRows {
		t.Fatalf("factor dump has %d lines, want ≥ %d", lines, wantRows)
	}
	path := t.TempDir() + "/factors.txt"
	if err := spstream.SaveFactors(path, dec); err != nil {
		t.Fatal(err)
	}
}

func TestFitSensible(t *testing.T) {
	// Near-dense planted data: fit should be clearly positive.
	stream, err := spstream.Generate(spstream.SynthConfig{
		Name:        "dense",
		Dists:       []synth.IndexDist{synth.Uniform{N: 8}, synth.Uniform{N: 8}, synth.Uniform{N: 8}},
		T:           4,
		NNZPerSlice: 2000,
		Values:      synth.ValuePlanted,
		PlantedRank: 2,
		NoiseStd:    0.01,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := spstream.New(stream.Dims, spstream.Options{Rank: 4, TrackFit: true, MaxIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	results, err := dec.ProcessStream(stream.Source(), nil)
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if math.IsNaN(last.Fit) || last.Fit < 0.5 {
		t.Fatalf("fit %.3f too low on near-dense planted data", last.Fit)
	}
}

// TestOptionSurface pins the settable values of the library's four
// configuration structs: each field's name and kind, in order. A value
// that only one caller sets belongs in a constant, not here.
func TestOptionSurface(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{spstream.Options{}, "Rank:int Algorithm:int Mu:float64 Tol:float64 MaxIters:int Workers:int Constraint:interface ADMMTol:float64 ADMMMaxIters:int Seed:uint64 TrackFit:bool Normalize:bool DirectCz:bool MTTKRPKernel:int Layout:int MemBudget:int64 Resilience:ptr ConstrainedSpCP:bool"},
		{spstream.ResilienceConfig{}, "Policy:int SliceTimeout:int64 MaxDelta:float64 DisableInputScan:bool Checkpoint:ptr FaultHook:func"},
		{spstream.IngestConfig{}, "QueueCap:int Policy:int MaxLag:int64 Degrade:bool DrainTimeout:int64 OnResult:func OnError:func Clock:func Gate:func Spill:ptr"},
		{spstream.SpillConfig{}, "Dir:string MaxBytes:int64 SegmentBytes:int64 FsyncInterval:int64 FS:interface"},
	} {
		typ := reflect.TypeOf(tc.v)
		fields := make([]string, typ.NumField())
		for i := range fields {
			f := typ.Field(i)
			fields[i] = f.Name + ":" + f.Type.Kind().String()
		}
		if got := strings.Join(fields, " "); got != tc.want {
			t.Errorf("%s fields:\n got %s\nwant %s", typ, got, tc.want)
		}
	}
}
