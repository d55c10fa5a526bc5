package synth

import (
	"fmt"
	"testing"
)

// BenchmarkGenerate times the whole generator per preset at scale 0.25:
// ns/nnz is per drawn nonzero (before coalescing), coordinates, value
// and the slice's sort included.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
			nnz := float64(b.N) * float64(cfg.T) * float64(cfg.NNZPerSlice)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nnz, "ns/nnz")
		})
	}
}

var zipfSink int32

// BenchmarkZipfSample times one draw at the nips preset's Zipf modes
// (author and word, s = 0.6).
func BenchmarkZipfSample(b *testing.B) {
	for _, n := range []int{2900, 14000} {
		z := NewZipf(n, 0.6)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			r := NewRNG(1)
			for i := 0; i < b.N; i++ {
				zipfSink = z.Sample(r, 0)
			}
		})
	}
}
