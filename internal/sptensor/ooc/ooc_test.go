package ooc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// randomTensor builds a deterministic random tensor, optionally with
// duplicate coordinates and heavy skew.
func randomTensor(t testing.TB, dims []int, nnz int, seed int64, skew bool) *sptensor.Tensor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := sptensor.New(dims...)
	coord := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			if skew && rng.Intn(3) == 0 {
				coord[m] = int32(rng.Intn(1 + d/10))
			} else {
				coord[m] = int32(rng.Intn(d))
			}
		}
		x.Append(coord, rng.NormFloat64())
	}
	return x
}

func writeRead(t *testing.T, x *sptensor.Tensor, target int) *BlockReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.spblk")
	if err := WriteTensor(path, x, target); err != nil {
		t.Fatalf("WriteTensor: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// expectGridSort returns the stable grid-sort of x under the layout the
// writer will pick — the canonical materialization of the file.
func expectGridSort(x *sptensor.Tensor, target int) *sptensor.Tensor {
	lay := Layout{Dims: x.Dims, Splits: BlockShape(x.Dims, x.NNZ(), target)}
	out := x.Clone()
	n := x.NNZ()
	type keyed struct {
		rank int64
		pos  int
	}
	keys := make([]keyed, n)
	for e := 0; e < n; e++ {
		r := int64(0)
		for m := range x.Dims {
			r = r*int64(lay.GridDim(m)) + int64(lay.GridCoord(m, x.Inds[m][e]))
		}
		keys[e] = keyed{r, e}
	}
	// Insertion-sort stability via pos tiebreak.
	for i := 1; i < n; i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && (keys[j].rank > k.rank) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
	for i, k := range keys {
		for m := range x.Dims {
			out.Inds[m][i] = x.Inds[m][k.pos]
		}
		out.Vals[i] = x.Vals[k.pos]
	}
	return out
}

func tensorsEqual(a, b *sptensor.Tensor) bool {
	if a.NNZ() != b.NNZ() || a.NModes() != b.NModes() {
		return false
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return false
		}
		for e := range a.Inds[m] {
			if a.Inds[m][e] != b.Inds[m][e] {
				return false
			}
		}
	}
	for e, v := range a.Vals {
		if b.Vals[e] != v {
			return false
		}
	}
	return true
}

func TestWriteReadRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		x      *sptensor.Tensor
		target int
	}{
		{"small3", randomTensor(t, []int{40, 30, 50}, 2000, 1, false), 256},
		{"skewed", randomTensor(t, []int{100, 200, 60}, 5000, 2, true), 512},
		{"mode4", randomTensor(t, []int{9, 8, 7, 6}, 900, 3, false), 100},
		{"oneblock", randomTensor(t, []int{20, 20}, 50, 4, false), 1 << 20},
		{"degenerate", randomTensor(t, []int{1, 1, 1}, 10, 5, false), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := writeRead(t, tc.x, tc.target)
			if r.NNZ() != tc.x.NNZ() {
				t.Fatalf("NNZ = %d, want %d", r.NNZ(), tc.x.NNZ())
			}
			got, err := sptensor.MaterializeBlocks(r)
			if err != nil {
				t.Fatalf("MaterializeBlocks: %v", err)
			}
			want := expectGridSort(tc.x, tc.target)
			if !tensorsEqual(got, want) {
				t.Fatalf("materialized blocks differ from stable grid-sort of input")
			}
			// Blocks must honour their extents and ascending rank.
			lastRank := int64(-1)
			for b := 0; b < r.Blocks(); b++ {
				rank := r.Layout().Rank(r.BlockGrid(b))
				if rank <= lastRank {
					t.Fatalf("block %d rank %d not ascending", b, rank)
				}
				lastRank = rank
				blk, err := r.Block(b)
				if err != nil {
					t.Fatalf("Block(%d): %v", b, err)
				}
				for m := range blk.Inds {
					lo, hi := r.Extent(b, m)
					for _, c := range blk.Inds[m] {
						if c < lo || c >= hi {
							t.Fatalf("block %d mode %d coord %d outside [%d,%d)", b, m, c, lo, hi)
						}
					}
				}
			}
		})
	}
}

func TestBlockShape(t *testing.T) {
	dims := []int{1000, 10, 1000}
	splits := BlockShape(dims, 1<<20, 1<<12)
	prod := 1
	for m, s := range splits {
		if s < 1 || s > dims[m] {
			t.Fatalf("split %d out of range: %v", m, splits)
		}
		prod *= s
	}
	if prod < 256 { // ⌈2^20/2^12⌉ = 256 blocks wanted
		t.Fatalf("grid of %d blocks cannot reach the target: %v", prod, splits)
	}
	// The long modes should absorb nearly all splitting.
	if splits[1] > 2 || splits[0] < 8 || splits[2] < 8 {
		t.Fatalf("unbalanced shape %v for dims %v", splits, dims)
	}
	// Tiny tensors stay monolithic.
	one := BlockShape([]int{5, 5}, 100, 1000)
	if one[0] != 1 || one[1] != 1 {
		t.Fatalf("small tensor split %v, want [1 1]", one)
	}
}

func TestConvertTNSMatchesWriteTensor(t *testing.T) {
	x := randomTensor(t, []int{60, 45, 80}, 4000, 7, true)
	dir := t.TempDir()
	tns := filepath.Join(dir, "x.tns")
	if err := sptensor.WriteTNSFile(tns, x); err != nil {
		t.Fatal(err)
	}
	direct := filepath.Join(dir, "direct.spblk")
	if err := WriteTensor(direct, x, 300); err != nil {
		t.Fatal(err)
	}
	// Tiny budget forces many sort runs; the merged output must still
	// be byte-identical to the in-memory write.
	conv := filepath.Join(dir, "conv.spblk")
	st, err := ConvertTNS(tns, conv, ConvertOptions{TargetBlockNNZ: 300, MemBudget: 64 << 10})
	if err != nil {
		t.Fatalf("ConvertTNS: %v", err)
	}
	if st.Runs < 2 {
		t.Fatalf("budget of 64KiB produced %d runs; external path not exercised", st.Runs)
	}
	if st.NNZ != x.NNZ() {
		t.Fatalf("converted %d nonzeros, want %d", st.NNZ, x.NNZ())
	}
	a, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(conv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("converter output differs from in-memory WriteTensor (%d vs %d bytes)", len(b), len(a))
	}
	// Both equal the stable grid-sort oracle, across several blocks.
	if st.Blocks < 2 {
		t.Fatalf("converted into %d blocks; multi-block order not exercised", st.Blocks)
	}
	r, err := Open(conv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sptensor.MaterializeBlocks(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsEqual(got, expectGridSort(x, 300)) {
		t.Fatal("converted blocks differ from the stable grid-sort of the input")
	}
	// No stray run files left beside the output.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "x.tns" && e.Name() != "direct.spblk" && e.Name() != "conv.spblk" {
			t.Fatalf("leftover temp file %q", e.Name())
		}
	}
}

func TestConvertTNSRejectsTooManyModes(t *testing.T) {
	dir := t.TempDir()
	tns := filepath.Join(dir, "big.tns")
	line := ""
	for m := 0; m < MaxModes+1; m++ {
		line += "1 "
	}
	line += "2.5\n"
	if err := os.WriteFile(tns, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ConvertTNS(tns, filepath.Join(dir, "big.spblk"), ConvertOptions{}); err == nil {
		t.Fatal("expected a mode-count error")
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	x := randomTensor(t, []int{30, 30, 30}, 1500, 11, false)
	path := filepath.Join(t.TempDir(), "x.spblk")
	if err := WriteTensor(path, x, 200); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := f(append([]byte(nil), orig...))
			p := filepath.Join(t.TempDir(), "bad.spblk")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(p)
			if err != nil {
				return // rejected at open: fine
			}
			defer r.Close()
			for blk := 0; blk < r.Blocks(); blk++ {
				if _, err := r.Block(blk); err != nil {
					return // rejected at decode: fine
				}
			}
			t.Fatal("corrupted file fully readable")
		})
	}
	mutate("badmagic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("badendmagic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated-tail", func(b []byte) []byte { return b[:len(b)-3] })
	mutate("bitflip-payload", func(b []byte) []byte { b[len(Magic)+sectionHeaderLen+9] ^= 0x10; return b })
	mutate("bitflip-footer-offset", func(b []byte) []byte { b[len(b)-12] ^= 0x01; return b })
	mutate("zero-footer-offset", func(b []byte) []byte {
		for i := len(b) - 16; i < len(b)-8; i++ {
			b[i] = 0
		}
		return b
	})
}

// TestConcurrentStreamsDecode decodes one fresh reader from four goroutines
// at once, each into its own buffer — the streamed kernels' access
// pattern. The first pass races the CRC checks (run it under -race);
// every decode must equal the serial one.
func TestConcurrentStreamsDecode(t *testing.T) {
	x := randomTensor(t, []int{40, 50, 30}, 6000, 17, true)
	want := make([]*sptensor.Tensor, 0)
	serial := writeRead(t, x, 400)
	for b := 0; b < serial.Blocks(); b++ {
		blk, err := serial.Block(b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, blk.Clone())
	}
	r := writeRead(t, x, 400)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf sptensor.BlockBuf
			for pass := 0; pass < 3; pass++ {
				for i := range want {
					b := (i + g*len(want)/4) % len(want) // staggered starts
					blk, err := r.BlockInto(b, &buf)
					if err == nil && !tensorsEqual(blk, want[b]) {
						err = fmt.Errorf("goroutine %d pass %d: block %d differs from the serial decode", g, pass, b)
					}
					if err != nil {
						errs[g] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeCoordsFirstOffender checks the grouped decode against the
// contract of the loop it replaced: every position is checked against
// [lo, hi), and the first coordinate outside it — wherever it sits in a
// group of four or in the tail — is the one reported.
func TestDecodeCoordsFirstOffender(t *testing.T) {
	const n, lo, hi = 11, 5, 9
	for bad := -1; bad < n; bad++ {
		for _, v := range []int32{4, 9, -1} {
			sec := make([]byte, 4*n)
			for i := 0; i < n; i++ {
				c := int32(lo + i%(hi-lo))
				if i == bad || (bad >= 0 && i == n-1) { // a later offender must not win
					c = v
				}
				binary.LittleEndian.PutUint32(sec[4*i:], uint32(c))
			}
			col := make([]int32, n)
			got := decodeCoords(col, sec, lo, hi)
			if got != bad {
				t.Fatalf("offender %d at %d: decodeCoords = %d", v, bad, got)
			}
			if bad >= 0 && col[bad] != v {
				t.Fatalf("offender at %d: col holds %d, want %d for the error text", bad, col[bad], v)
			}
		}
	}
}

// TestBlockIntoRejectsCoordinate flips a coordinate out of its extent
// behind a valid CRC (the check runs before the flip) and expects the
// parent's error text from both entry points.
func TestBlockIntoRejectsCoordinate(t *testing.T) {
	x := randomTensor(t, []int{30, 30, 30}, 1500, 11, false)
	path := filepath.Join(t.TempDir(), "x.spblk")
	if err := WriteTensor(path, x, 200); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Block(1); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Sixth coordinate of mode 0, top byte.
	if _, err := f.WriteAt([]byte{0x7f}, r.BlockOffset(1)+sectionHeaderLen+8+4*5+3); err != nil {
		t.Fatal(err)
	}
	lo, hi := r.Extent(1, 0)
	prefix, suffix := "ooc: block 1 mode-0 coordinate ", fmt.Sprintf(" outside extent [%d,%d)", lo, hi)
	var buf sptensor.BlockBuf
	_, errInto := r.BlockInto(1, &buf)
	_, errOwn := r.Block(1)
	for _, err := range []error{errInto, errOwn} {
		if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.HasSuffix(err.Error(), suffix) {
			t.Fatalf("error %v, want %q…%q", err, prefix, suffix)
		}
	}
}

func BenchmarkBlockDecode(b *testing.B) {
	x := randomTensor(b, []int{200, 200, 200}, 1<<17, 3, false)
	path := filepath.Join(b.TempDir(), "x.spblk")
	if err := WriteTensor(path, x, 1<<14); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	// Warm pass verifies CRCs so the loop measures steady-state decode.
	for blk := 0; blk < r.Blocks(); blk++ {
		if _, err := r.Block(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(x.NNZ()) * int64(entryBytes(3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < r.Blocks(); blk++ {
			if _, err := r.Block(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWriteTensor writes the ooc-stream workload's slice (uniform
// 1200×900×700, 500 k nonzeros drawn, coalesced as synth hands it over)
// at the default block size and reports ns per nonzero and B/op.
func BenchmarkWriteTensor(b *testing.B) {
	x, err := synth.GenerateSlice(synth.Config{
		Name:        "oocflat",
		Dists:       []synth.IndexDist{synth.Uniform{N: 1200}, synth.Uniform{N: 900}, synth.Uniform{N: 700}},
		NNZPerSlice: 500_000,
		T:           1,
		Seed:        31,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "slice.spblk")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTensor(path, x, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
}
