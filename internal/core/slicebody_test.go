package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"spstream/internal/admm"
	"spstream/internal/dense"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
)

// sliceBodyBits pins, per configuration, the FNV-64a hash of everything a
// slice body produces: each slice's δ, fit, Iters and ADMMIters, then the
// final factors, C, the C_z the last slice finished with (zero after a
// z = ∅ slice), every sₜ and G. Keys are
// "<stream>/<alg>/<con|uncon>/<norm|raw>/<resident|streamed>".
var sliceBodyBits = map[string]uint64{
	"planted/optimized/uncon/raw/resident":  0xdd08fad54bad2731,
	"planted/optimized/uncon/raw/streamed":  0xdd08fad54bad2731,
	"planted/optimized/uncon/norm/resident": 0x522c111a1a75f35c,
	"planted/optimized/uncon/norm/streamed": 0x522c111a1a75f35c,
	"planted/optimized/con/raw/resident":    0x331da52331f0d75a,
	"planted/optimized/con/raw/streamed":    0x331da52331f0d75a,
	"planted/optimized/con/norm/resident":   0x0d68d583c834ba42,
	"planted/optimized/con/norm/streamed":   0x0d68d583c834ba42,
	"planted/spcp/uncon/raw/resident":       0x72fecae8983d230c,
	"planted/spcp/uncon/norm/resident":      0xfea676403e2625b2,
	"skewed/optimized/uncon/raw/resident":   0x2d6e08ede602a103,
	"skewed/optimized/uncon/raw/streamed":   0x2d6e08ede602a103,
	"skewed/optimized/uncon/norm/resident":  0xaa71d93a06c6d060,
	"skewed/optimized/uncon/norm/streamed":  0xaa71d93a06c6d060,
	"skewed/optimized/con/raw/resident":     0x294be7307b68d26c,
	"skewed/optimized/con/raw/streamed":     0x294be7307b68d26c,
	"skewed/optimized/con/norm/resident":    0xe73c1c8601d03b73,
	"skewed/optimized/con/norm/streamed":    0xe73c1c8601d03b73,
	"skewed/spcp/uncon/raw/resident":        0xfd94290d73022312,
	"skewed/spcp/uncon/norm/resident":       0xd0f31981d739ed5d,
}

// TestSliceBodyBits holds the slice body to its exact output across
// {Optimized, SpCPStream} × {unconstrained, NonNeg} × {Normalize off, on}
// × {resident, streamed} on a uniform and a skewed stream, SpCPStream
// taking no constraint (paper §VII). A streamed
// slice runs the body with an empty z set under either algorithm, so a
// streamed SpCPStream run must hash like the Optimized one. Each
// configuration runs again with the committed version pinned across
// every slice — the way a reader or a rollback point holds it — which
// sends the resident spCP slice into the spare instead of in place and
// has every slice meet a pinned spare; it must hash the same. Other
// architectures may fuse multiply-adds, so the pins are amd64's.
func TestSliceBodyBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit pins are amd64's; other architectures may fuse FMA")
	}
	streams := []struct {
		name string
		s    *sptensor.Stream
	}{
		{"planted", testStream(t, 106, []int{30, 700, 40}, 9000, 3)},
		{"skewed", skewedStream(t, 32)},
	}
	for _, st := range streams {
		for _, con := range []admm.Constraint{nil, admm.NonNeg{}} {
			for _, normalize := range []bool{false, true} {
				for _, streamed := range []bool{false, true} {
					for _, pinned := range []bool{false, true} {
						var hashes [2]uint64
						for i, alg := range []Algorithm{Optimized, SpCPStream} {
							if alg == SpCPStream && con != nil {
								continue
							}
							opt := Options{
								Rank: 5, Algorithm: alg, Constraint: con,
								Normalize: normalize, Seed: 4, Workers: 2,
							}
							if streamed {
								opt.MemBudget = 1
							}
							hashes[i] = sliceBodyHash(t, st.s, opt, streamed, pinned, false)
						}
						key := sliceBodyKey(st.name, con != nil, normalize, streamed)
						if pinned {
							key += "/pinned"
						}
						if streamed && con == nil && hashes[1] != hashes[0] {
							t.Errorf("%s: streamed SpCPStream hashes %#x, Optimized %#x", key, hashes[1], hashes[0])
						}
						for i, alg := range []string{"optimized", "spcp"} {
							k := fmt.Sprintf(key, alg)
							// A pinned run hashes like the unpinned one.
							want, ok := sliceBodyBits[strings.TrimSuffix(k, "/pinned")]
							if !ok {
								continue // streamed spCP: checked against Optimized above
							}
							if hashes[i] != want {
								t.Errorf("%s: hash %#x, pinned %#x", k, hashes[i], want)
							}
						}
					}
				}
			}
		}
	}
}

func sliceBodyKey(stream string, con, normalize, streamed bool) string {
	c, n, r := "uncon", "raw", "resident"
	if con {
		c = "con"
	}
	if normalize {
		n = "norm"
	}
	if streamed {
		r = "streamed"
	}
	return stream + "/%s/" + c + "/" + n + "/" + r
}

// sliceBodyHash runs s and hashes the output. pinned holds each slice's
// committed version from before the slice until after the next one, so
// the committed version and, from the second slice on, the spare are
// pinned whenever a slice begins. eager flushes the committed version
// after every slice: the eager z-row transform, the lazy side's oracle.
func sliceBodyHash(t *testing.T, s *sptensor.Stream, opt Options, streamed, pinned, eager bool) uint64 {
	t.Helper()
	d, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var held []*Version
	var sRows []float64 // S, row after row, as a caller collects it
	for _, x := range s.Slices {
		if pinned {
			if len(held) == 2 {
				held[0].Release()
				held = held[1:]
			}
			held = append(held, d.Committed())
			d.Committed().Pin()
		}
		var res SliceResult
		if streamed {
			src, err := sptensor.SplitBlocks(x, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = d.ProcessBlockSlice(src); err != nil {
				t.Fatal(err)
			}
			if d.LastEvalMode() != perfmodel.EvalStreamed {
				t.Fatalf("slice %d evaluated %v, want streamed", res.T, d.LastEvalMode())
			}
		} else if res, err = d.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
		hashFloats(h, res.Delta, res.Fit, float64(res.Iters), float64(res.ADMMIters))
		sRows = append(sRows, d.LastS()...)
		if eager {
			d.flushCommitted()
		}
	}
	for _, v := range held {
		v.Release()
	}
	for m := range d.dims {
		for _, mat := range []*dense.Matrix{d.Factor(m), d.modes[m].c, d.modes[m].czCur} {
			hashFloats(h, mat.Data...)
		}
	}
	hashFloats(h, sRows...)
	hashFloats(h, d.s...)
	hashFloats(h, d.g.Data...)
	return h.Sum64()
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
