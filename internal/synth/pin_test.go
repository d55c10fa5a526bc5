package synth

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"runtime"
	"testing"

	"spstream/internal/sptensor"
)

// sliceCRC is the CRC-64 (ECMA) of one slice: every mode's coordinates
// as little-endian uint32 in nonzero order, then every value's bits.
func sliceCRC(x *sptensor.Tensor) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var buf [8]byte
	for m := range x.Inds {
		for _, c := range x.Inds[m] {
			binary.LittleEndian.PutUint32(buf[:4], uint32(c))
			h.Write(buf[:4])
		}
	}
	for _, v := range x.Vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// pinnedConfigs are the streams TestPresetStreamsPinned holds: every
// preset at scale 0.05, the uniform 1200×900×700 shape of the
// out-of-core benchmark input, and a four-mode stream mixing uniform,
// Zipf and clustered modes, all at T = 3 and seed 17.
func pinnedConfigs(t testing.TB) map[string]Config {
	cfgs := map[string]Config{
		"ooc": {
			Name:        "oocflat",
			Dists:       []IndexDist{Uniform{N: 1200}, Uniform{N: 900}, Uniform{N: 700}},
			NNZPerSlice: 5000,
			Values:      ValuePlanted,
			PlantedRank: 8,
			NoiseStd:    0.05,
		},
		"four-mode": {
			Name:        "four-mode",
			Dists:       []IndexDist{Uniform{N: 30}, NewZipf(50, 0.7), Clustered{N: 200, Window: 20, Drift: 10, Revisit: 0.1}, Uniform{N: 12}},
			NNZPerSlice: 2000,
			Values:      ValuePlanted,
			PlantedRank: 5,
			NoiseStd:    0.05,
		},
	}
	for _, name := range PresetNames() {
		cfg, err := Preset(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[name] = cfg
	}
	for name, cfg := range cfgs {
		cfg.T, cfg.Seed = 3, 17
		cfgs[name] = cfg
	}
	return cfgs
}

// TestPresetStreamsPinned holds the generated bytes: a change to any
// draw, to the order of the draws or to the arithmetic of a value shows
// here, slice by slice, rather than as a golden diff downstream. Other
// architectures may fuse the noise's multiply into the planted value's
// add, so the pins are amd64's.
func TestPresetStreamsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit pins are amd64's; other architectures may fuse FMA")
	}
	want := map[string][3]uint64{
		"flickr":    {0x18f9ef0630264781, 0xc9883a7d1d02ea0c, 0x1509f3ccfcac9d56},
		"nips":      {0x00899a0c1b093c4a, 0xcb5a11b0fab9d3c7, 0xa8240271c0023b50},
		"patents":   {0x7b79c4dd90629b6f, 0x90ba5b3cb64d9d21, 0xd6e5b75e04f072e6},
		"uber":      {0xb3365ed6846cc5ec, 0x05872be9d7708533, 0x24fccc702f39782a},
		"ooc":       {0x0e7c8e058398525c, 0x2af28fe214754e0a, 0x7146bcf569b786bd},
		"four-mode": {0xafcc85642f787f43, 0xccbe4eed0f837fe3, 0xaecaf86ced4d81e4},
	}
	for name, cfg := range pinnedConfigs(t) {
		s, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ti, x := range s.Slices {
			if got := sliceCRC(x); got != want[name][ti] {
				t.Errorf("%s slice %d: CRC %#016x, want %#016x", name, ti, got, want[name][ti])
			}
		}
	}
}
