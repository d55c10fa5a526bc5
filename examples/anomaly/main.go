// Network-traffic anomaly detection with streaming tensor
// decomposition: a (source × destination × port) traffic tensor arrives
// in per-minute slices. Normal traffic follows a stable low-rank
// communication pattern, so the per-slice fit of the streaming model is
// stable; a port scan (one source probing every destination across many
// ports) injects a large structure the learned factors do not have, so
// the slice's fit and the factor-drift measure δ both deviate sharply
// from their running profile. The detector flags slices whose fit
// deviates from the running median by more than a threshold in either
// direction — a sudden *rise* is just as anomalous as a drop (the scan
// is a huge rank-1 block that dominates the slice's mass).
//
// Run with: go run ./examples/anomaly
package main

import (
	"fmt"
	"log"
	"sort"

	"spstream"
	"spstream/internal/synth"
)

const (
	nSrc    = 60
	nDst    = 60
	nPort   = 32
	nSlices = 30
	rank    = 8
)

// scanSlices are the minutes during which the attacker scans.
var scanSlices = map[int]bool{17: true, 18: true}

func main() {
	stream := generateTraffic()

	dec, err := spstream.New([]int{nSrc, nDst, nPort}, spstream.Options{
		Rank:      rank,
		Algorithm: spstream.SpCPStream,
		Mu:        0.95,
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}

	fits := make([]float64, 0, nSlices)
	fmt.Println("slice |   fit   | verdict")
	fmt.Println("------+---------+--------")
	detected := 0
	for t, slice := range stream.Slices {
		res, err := dec.ProcessSlice(slice)
		if err != nil {
			log.Fatal(err)
		}
		verdict := ""
		flagged := false
		// Compare against the running median of recent fits (warm-up of
		// 5 slices before judging). Either direction of deviation is
		// anomalous.
		if t >= 5 {
			med := median(fits)
			dev := res.Fit - med
			if dev > 0.15 || dev < -0.15 {
				verdict = "ANOMALY"
				flagged = true
				detected++
			}
		}
		marker := ""
		if scanSlices[t] {
			marker = "   <-- injected port scan"
		}
		fmt.Printf("%5d | %7.4f | %-8s%s\n", t, res.Fit, verdict, marker)
		// Keep the running window clean: do not let anomalous slices
		// poison the baseline profile.
		if !flagged {
			fits = append(fits, res.Fit)
			if len(fits) > 10 {
				fits = fits[1:]
			}
		}
	}
	fmt.Printf("\nflagged %d slices (expected ≥ %d, the injected scan minutes)\n", detected, len(scanSlices))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// generateTraffic builds the traffic stream: a stable low-rank pattern
// (a few service clusters) plus noise, with a port scan injected on the
// scan slices.
func generateTraffic() *spstream.Stream {
	r := synth.NewRNG(99)
	stream := &spstream.Stream{Dims: []int{nSrc, nDst, nPort}}
	// Three stable "services": groups of sources talk to groups of
	// destinations on a small set of ports.
	type service struct {
		srcLo, dstLo, port int
	}
	services := []service{{0, 0, 4}, {20, 20, 10}, {40, 40, 22}}
	for t := 0; t < nSlices; t++ {
		slice := spstream.NewTensor(nSrc, nDst, nPort)
		for e := 0; e < 4000; e++ {
			sv := services[r.Intn(len(services))]
			src := int32(sv.srcLo + r.Intn(20))
			dst := int32(sv.dstLo + r.Intn(20))
			port := int32(sv.port)
			if r.Float64() < 0.1 { // background noise
				src, dst, port = int32(r.Intn(nSrc)), int32(r.Intn(nDst)), int32(r.Intn(nPort))
			}
			slice.Append([]int32{src, dst, port}, 1+0.2*r.NormFloat64())
		}
		if scanSlices[t] {
			// Port scan: source 7 probes every destination on many ports
			// with high intensity, swamping the learned structure.
			for dst := 0; dst < nDst; dst++ {
				for port := 0; port < nPort; port += 2 {
					slice.Append([]int32{7, int32(dst), int32(port)}, 8)
				}
			}
		}
		slice.Coalesce()
		stream.Slices = append(stream.Slices, slice)
	}
	return stream
}
