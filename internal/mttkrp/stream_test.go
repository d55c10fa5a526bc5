package mttkrp

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"spstream/internal/dense"
	"spstream/internal/parallel"
	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
)

// streamTensor builds a deterministic test tensor with optional skew
// (duplicate-heavy hot rows) and tiny-dim degeneracy.
func streamTensor(tb testing.TB, dims []int, nnz int, seed int64, skew bool) *sptensor.Tensor {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := sptensor.New(dims...)
	coord := make([]int32, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			if skew && rng.Intn(3) == 0 {
				coord[m] = int32(rng.Intn(1 + d/8))
			} else {
				coord[m] = int32(rng.Intn(d))
			}
		}
		x.Append(coord, rng.NormFloat64())
	}
	return x
}

func randFactors(rng *rand.Rand, dims []int, k int) []*dense.Matrix {
	fs := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		fs[m] = dense.NewMatrix(d, k)
		for i := range fs[m].Data {
			fs[m].Data[i] = rng.NormFloat64()
		}
	}
	return fs
}

// TestStreamMatchesPlan is the kernel's identity over every layout of
// one tensor: for 2-, 3- and 4-mode tensors (random, skewed, degenerate,
// empty), the tensor compiled (Compile), as one block, as consecutive
// runs of 700 and as runs with an empty block and a one-row block among
// them — decoded into the kernel's buffers, not served in place — at
// share 0, a share that holds half the pairs and no share limit, and 1,
// 2, 3 and 7 workers against a pool of 4, gives every mode bit for bit
// what Sequential gives on the tensor.
func TestStreamMatchesPlan(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	cases := []struct {
		name string
		x    *sptensor.Tensor
	}{
		{"random", streamTensor(t, []int{50, 40, 60}, 5000, 1, false)},
		{"skewed", streamTensor(t, []int{200, 30, 100}, 8000, 2, true)},
		{"degenerate", streamTensor(t, []int{1, 3, 2}, 64, 3, false)},
		{"mode4", streamTensor(t, []int{12, 9, 14, 8}, 2000, 4, false)},
		{"mode2", streamTensor(t, []int{90, 70}, 3000, 5, true)},
		{"empty", sptensor.New(5, 5, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := oneRowFirst(tc.x)
			layouts := map[string]sptensor.BlockSource{
				"one block": splitBlocks(t, x, max(x.NNZ(), 1)),
				"runs":      splitBlocks(t, x, 700),
				"odd":       &decodingSource{BlockSource: oddBlocks(t, x)},
			}
			for _, workers := range []int{1, 2, 3, 7} {
				c := NewComputerWithPool(workers, pool)
				tw, k := newStreamTwin(splitBlocks(t, x, max(x.NNZ(), 1)), 9), compiled(t, c, x)
				tw.check(t, fmt.Sprintf("workers=%d compiled", workers), func(out *dense.Matrix, mode int) error {
					return k.MTTKRP(out, tw.factors, mode)
				})
				for name, src := range layouts {
					tw.src = src
					for _, pairs := range []int{0, len(x.Dims) * src.Blocks() / 2, -1} {
						k := NewKernel(c)
						share := int64(math.MaxInt64)
						if pairs >= 0 {
							share, _ = shareFor(src, workers, pairs)
						}
						k.SetShare(share)
						tw.check(t, fmt.Sprintf("workers=%d %s pairs=%d", workers, name, pairs), tw.via(k))
					}
				}
			}
		})
	}
}

// splitBlocks is sptensor.SplitBlocks that fails the test on an error.
func splitBlocks(t *testing.T, x *sptensor.Tensor, n int) *sptensor.MemBlocks {
	t.Helper()
	src, err := sptensor.SplitBlocks(x, n)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// oneRowFirst is x with the entries of its first entry's mode-0 row moved
// to the front (in order), so that a block can hold one row.
func oneRowFirst(x *sptensor.Tensor) *sptensor.Tensor {
	y := sptensor.New(x.Dims...)
	coord := make([]int32, x.NModes())
	for _, first := range []bool{true, false} {
		for e := range x.Vals {
			if (x.Inds[0][e] == x.Inds[0][0]) == first {
				for m := range coord {
					coord[m] = x.Inds[m][e]
				}
				y.Append(coord, x.Vals[e])
			}
		}
	}
	return y
}

// oddBlocks cuts a oneRowFirst tensor into its leading one-row run, an
// empty block, and two halves of the rest.
func oddBlocks(t *testing.T, x *sptensor.Tensor) *sptensor.MemBlocks {
	t.Helper()
	run := 0
	for run < x.NNZ() && x.Inds[0][run] == x.Inds[0][0] {
		run++
	}
	cut := func(lo, hi int) *sptensor.Tensor {
		b := &sptensor.Tensor{Dims: x.Dims, Inds: make([][]int32, x.NModes()), Vals: x.Vals[lo:hi]}
		for m := range b.Inds {
			b.Inds[m] = x.Inds[m][lo:hi]
		}
		return b
	}
	mid := (run + x.NNZ()) / 2
	src, err := sptensor.NewMemBlocks(x.Dims, []*sptensor.Tensor{cut(0, run), sptensor.New(x.Dims...), cut(run, mid), cut(mid, x.NNZ())})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStreamMatchesPlanOnBlockFile runs the same bit-identity check
// through a real .spblk file — mmap reader, CRC verification and all —
// so the full out-of-core read path is covered, not just MemBlocks.
func TestStreamMatchesPlanOnBlockFile(t *testing.T) {
	r := blockFile(t, streamTensor(t, []int{80, 50, 70}, 6000, 7, true), 512)
	pool := parallel.NewPool(4)
	for _, workers := range []int{1, 4, 7} {
		c := NewComputerWithPool(workers, pool)
		tw := newStreamTwin(r, 12)
		tw.check(t, fmt.Sprintf("workers=%d", workers), tw.via(NewKernel(c)))
	}
}

// TestStreamKernelAllocFree checks the steady-state allocation contract:
// after the first call has grown the scratch, repeated streamed MTTKRP
// evaluations allocate nothing.
func TestStreamKernelAllocFree(t *testing.T) {
	x := streamTensor(t, []int{60, 45, 55}, 6000, 11, false)
	src := splitBlocks(t, x, 900)
	const k = 8
	rng := rand.New(rand.NewSource(21))
	factors := randFactors(rng, x.Dims, k)
	c := NewComputerWithPool(2, parallel.NewPool(2))
	kern := NewKernel(c)
	if err := kern.Begin(src); err != nil {
		t.Fatal(err)
	}
	out := dense.NewMatrix(x.Dims[0], k)
	// Warm-up growth pass over every mode.
	for mode := range x.Dims {
		mustMTTKRP(t, kern, dense.NewMatrix(x.Dims[mode], k), factors, mode)
	}
	allocs := testing.AllocsPerRun(10, func() { mustMTTKRP(t, kern, out, factors, 0) })
	if allocs != 0 {
		t.Fatalf("steady-state streamed kernels allocate %v times per run, want 0", allocs)
	}
}

// blockFile writes x as an .spblk file of roughly target nonzeros per
// block and opens it.
func blockFile(t *testing.T, x *sptensor.Tensor, target int) *ooc.BlockReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.spblk")
	if err := ooc.WriteTensor(path, x, target); err != nil {
		t.Fatal(err)
	}
	r, err := ooc.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// streamTwin is what a kernel must reproduce bit for bit over src:
// Sequential on the materialized concatenation of its blocks.
type streamTwin struct {
	src     sptensor.BlockSource
	factors []*dense.Matrix
}

func newStreamTwin(src sptensor.BlockSource, k int) *streamTwin {
	return &streamTwin{src: src, factors: randFactors(rand.New(rand.NewSource(int64(k))), src.Dims(), k)}
}

// via runs a mode's pass through k over the twin's source, compiling k
// for it first unless it holds it.
func (tw *streamTwin) via(k *Kernel) func(out *dense.Matrix, mode int) error {
	return func(out *dense.Matrix, mode int) error {
		if !k.Holds(tw.src) {
			if err := k.Begin(tw.src); err != nil {
				return err
			}
		}
		return k.MTTKRP(out, tw.factors, mode)
	}
}

// check runs every mode's MTTKRP through pass and compares the bits with
// Sequential's.
func (tw *streamTwin) check(t *testing.T, label string, pass func(out *dense.Matrix, mode int) error) {
	t.Helper()
	mat, err := sptensor.MaterializeBlocks(tw.src)
	if err != nil {
		t.Fatal(err)
	}
	k := tw.factors[0].Cols
	for mode, d := range tw.src.Dims() {
		want, got := dense.NewMatrix(d, k), dense.NewMatrix(d, k)
		Sequential(want, mat, tw.factors, mode)
		got.Fill(3)
		if err := pass(got, mode); err != nil {
			t.Fatalf("%s mode %d: %v", label, mode, err)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s mode %d: element %d = %v, want %v (not bit-identical)", label, mode, i, got.Data[i], v)
			}
		}
	}
}

// rowOwnerSources are the block layouts that decide how rows and blocks
// fall to workers: which blocks a worker may take whole, which it must
// filter, and which it never opens.
func rowOwnerSources(t *testing.T) map[string]sptensor.BlockSource {
	t.Helper()
	// An empty block and a block holding one row, between two ordinary ones.
	dims := []int{30, 20, 25}
	oneRow := streamTensor(t, dims, 300, 23, false)
	for e := range oneRow.Inds[0] {
		oneRow.Inds[0][e] = 17
	}
	odd, err := sptensor.NewMemBlocks(dims, []*sptensor.Tensor{
		streamTensor(t, dims, 900, 21, false), sptensor.New(dims...), oneRow, streamTensor(t, dims, 700, 22, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sptensor.BlockSource{
		// Every mode cut in two: with two workers each takes whole slabs.
		"grid-2x2x2": blockFile(t, streamTensor(t, []int{60, 50, 40}, 4000, 31, false), 500),
		// Mode 0 is one slab: every worker opens every block and filters.
		"unsplit-mode": blockFile(t, streamTensor(t, []int{24, 1100, 1700}, 6000, 32, false), 800),
		// Consecutive runs: every block spans all rows of every mode.
		"run-blocks": splitBlocks(t, streamTensor(t, []int{50, 40, 60}, 5000, 33, false), 700),
		// Hot low rows pull a balanced boundary inside the first slab.
		"skewed-grid":          blockFile(t, streamTensor(t, []int{200, 30, 100}, 8000, 34, true), 1000),
		"empty-and-single-row": odd,
	}
}

// TestStreamRowOwnerMatchesPlan is the row-ownership identity: whatever
// rows and blocks a worker count hands each worker, every output row
// still sums its entries in (block order, entry order), so the bits
// equal Sequential's on the materialized twin.
func TestStreamRowOwnerMatchesPlan(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for name, src := range rowOwnerSources(t) {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			k := NewKernel(NewComputerWithPool(workers, pool))
			for _, rank := range []int{7, 16, 17} {
				tw := newStreamTwin(src, rank)
				tw.check(t, fmt.Sprintf("%s workers=%d K=%d", name, workers, rank), tw.via(k))
			}
		}
	}
}

// TestStreamScheduleSnapsToSlabs pins the property the speed rests on:
// on a uniform grid file the balanced row boundary lands a few rows off
// the slab edge, and Begin moves it there, so with two workers each
// opens only its own slab's four blocks and filters none; on the skewed
// file the first of three workers' boundaries falls among the hot rows
// and stays there (moving it to a slab edge would cost more than an
// eighth of a worker's share), so two workers open that slab. Both keep
// the balance bound and one writer per row (requireBalancedRows).
func TestStreamScheduleSnapsToSlabs(t *testing.T) {
	srcs := rowOwnerSources(t)
	pool := parallel.NewPool(2)
	defer pool.Close()
	k := NewKernel(NewComputerWithPool(2, pool))
	if err := k.Begin(srcs["grid-2x2x2"]); err != nil {
		t.Fatal(err)
	}
	grid, err := sptensor.MaterializeBlocks(srcs["grid-2x2x2"])
	if err != nil {
		t.Fatal(err)
	}
	for m := range k.modes {
		sm := &k.modes[m]
		requireBalancedRows(t, fmt.Sprintf("grid mode %d", m), grid, sm, m, grid.Dims[m])
		for w := 0; w < 2; w++ {
			blks := sm.blks[sm.blkPtr[w]:sm.blkPtr[w+1]]
			if len(blks) != 4 {
				t.Fatalf("mode %d worker %d opens %d blocks, want its slab's 4", m, w, len(blks))
			}
			for _, b := range blks {
				if sm.lo[b] < sm.rows[w] || sm.hi[b] >= sm.rows[w+1] {
					t.Fatalf("mode %d worker %d must filter block %d: rows [%d,%d] vs range [%d,%d)",
						m, w, b, sm.lo[b], sm.hi[b], sm.rows[w], sm.rows[w+1])
				}
			}
		}
	}
	k = NewKernel(NewComputerWithPool(3, pool))
	if err := k.Begin(srcs["skewed-grid"]); err != nil {
		t.Fatal(err)
	}
	skewed, err := sptensor.MaterializeBlocks(srcs["skewed-grid"])
	if err != nil {
		t.Fatal(err)
	}
	sm := &k.modes[0]
	requireBalancedRows(t, "skewed mode 0", skewed, sm, 0, skewed.Dims[0])
	if b := sm.blks[sm.blkPtr[1]]; sm.lo[b] >= sm.rows[1] {
		t.Fatalf("skewed mode 0: boundary %d is on a slab edge (block %d starts at %d), want it inside the slab", sm.rows[1], b, sm.lo[b])
	}
}

// TestStreamAlternatingSources drives one kernel the way the repo
// benchmark does — StreamKernel.MTTKRP called directly, never Begin —
// on two sources in turn: the kernel must notice the switch each time.
func TestStreamAlternatingSources(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	srcs := rowOwnerSources(t)
	for _, workers := range []int{1, 3} {
		sk := NewStreamKernel(NewComputerWithPool(workers, pool))
		a := newStreamTwin(srcs["grid-2x2x2"], 9)
		b := newStreamTwin(srcs["run-blocks"], 9)
		for round := 0; round < 3; round++ {
			for name, tw := range map[string]*streamTwin{"a": a, "b": b} {
				tw.check(t, fmt.Sprintf("workers=%d round %d source %s", workers, round, name), func(out *dense.Matrix, mode int) error {
					return sk.MTTKRP(out, tw.src, tw.factors, mode)
				})
			}
		}
	}
}

// TestStreamBeginAllocFree extends the steady-state contract to the
// per-slice compile step: once the buffers have seen both sources, a
// slice's worth of work — Begin, three MTTKRPs, End — allocates nothing
// on either, with no share and with a share that holds every pair of
// both (and the file's decode buffers).
func TestStreamBeginAllocFree(t *testing.T) {
	srcs := rowOwnerSources(t)
	pair := []sptensor.BlockSource{srcs["grid-2x2x2"], srcs["run-blocks"]}
	const k = 8
	pool := parallel.NewPool(2)
	defer pool.Close()
	var factors [2][]*dense.Matrix
	var outs [2][]*dense.Matrix
	for i, src := range pair {
		factors[i] = randFactors(rand.New(rand.NewSource(3)), src.Dims(), k)
		for _, d := range src.Dims() {
			outs[i] = append(outs[i], dense.NewMatrix(d, k))
		}
	}
	for _, share := range []int64{0, 1 << 20} {
		kern := NewKernel(NewComputerWithPool(2, pool))
		kern.SetShare(share)
		slice := func() {
			for i, src := range pair {
				if err := kern.Begin(src); err != nil {
					t.Fatal(err)
				}
				if (kern.Residency().Share() == 1) != (share > 0) {
					t.Fatalf("share %d: resident %+v", share, kern.Residency())
				}
				for mode, out := range outs[i] {
					mustMTTKRP(t, kern, out, factors[i], mode)
				}
				kern.End()
			}
		}
		slice() // grow every buffer to the larger source
		if allocs := testing.AllocsPerRun(10, slice); allocs != 0 {
			t.Fatalf("share %d: steady-state streamed slice allocates %v times per run, want 0", share, allocs)
		}
	}
}

// pokeableFile writes x as a 2×2×2 grid of blocks, opens it, and returns
// with the reader a function that overwrites the top byte of block b's
// first mode-0 coordinate — 12 bytes of section header, 8 of nonzero
// count, then the column — and returns the byte it replaced. 0x7f puts
// the coordinate out of range: with the CRCs already checked, only the
// per-decode coordinate validation can notice.
func pokeableFile(t *testing.T, x *sptensor.Tensor) (*ooc.BlockReader, func(b int, v byte) byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.spblk")
	if err := ooc.WriteTensor(path, x, x.NNZ()/8); err != nil {
		t.Fatal(err)
	}
	r, err := ooc.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if r.Blocks() != 8 {
		t.Fatalf("want a 2x2x2 grid, got %d blocks", r.Blocks())
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return r, func(b int, v byte) byte {
		at := r.BlockOffset(b) + 12 + 8 + 3
		var old [1]byte
		if _, err := f.ReadAt(old[:], at); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{v}, at); err != nil {
			t.Fatal(err)
		}
		return old[0]
	}
}

// TestStreamDecodeErrorLowestBlock corrupts two blocks of a file after
// the kernel has compiled it — the CRCs are already checked, so only the
// per-decode coordinate validation inside the pool can notice — and
// checks that every worker count reports the lower block, wrapped the
// usual way, without a panic, that the compile reports the block and
// records it as the input scan's failure, and that the kernel works
// again once the file is whole.
func TestStreamDecodeErrorLowestBlock(t *testing.T) {
	x := streamTensor(t, []int{60, 50, 40}, 4000, 41, false)
	r, poke := pokeableFile(t, x)
	const lowBad, highBad = 2, 6
	pool := parallel.NewPool(4)
	defer pool.Close()
	const k = 8
	for _, workers := range []int{1, 2, 4} {
		kern := NewKernel(NewComputerWithPool(workers, pool))
		tw := newStreamTwin(r, k)
		if err := kern.Begin(r); err != nil {
			t.Fatal(err)
		}
		oldHigh, oldLow := poke(highBad, 0x7f), poke(lowBad, 0x7f)
		want := fmt.Sprintf("mttkrp: block %d: ooc: block %d mode-0 coordinate", lowBad, lowBad)
		for mode := range x.Dims {
			o := dense.NewMatrix(x.Dims[mode], k)
			if err := kern.MTTKRP(o, tw.factors, mode); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("workers=%d mode %d: error %v, want prefix %q", workers, mode, err, want)
			}
			// The failed pass dropped the source; compile again while the
			// second bad block is the only one to find.
			poke(lowBad, oldLow)
			err := kern.Begin(r)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("mttkrp: block %d:", highBad)) {
				t.Fatalf("workers=%d: Begin error %v, want block %d", workers, err, highBad)
			}
			if scan := kern.ScanErr(); scan == nil || !strings.HasPrefix(scan.Error(), fmt.Sprintf("ooc: block %d mode-0 coordinate", highBad)) {
				t.Fatalf("workers=%d: scan record %v, want the decode error of block %d", workers, scan, highBad)
			}
			poke(highBad, oldHigh)
			if err := kern.Begin(r); err != nil || kern.ScanErr() != nil {
				t.Fatal(err, kern.ScanErr())
			}
			poke(highBad, 0x7f)
			poke(lowBad, 0x7f)
		}
		poke(highBad, oldHigh)
		poke(lowBad, oldLow)
		tw.check(t, fmt.Sprintf("workers=%d after repair", workers), tw.via(kern))
	}
}

// decodingSource serves another source's blocks the way a reader does —
// copied into the caller's buffer — and counts the calls.
type decodingSource struct {
	sptensor.BlockSource
	decodes atomic.Int64
}

func (d *decodingSource) BlockInto(b int, buf *sptensor.BlockBuf) (*sptensor.Tensor, error) {
	d.decodes.Add(1)
	blk, err := d.BlockSource.BlockInto(b, buf)
	if err != nil {
		return nil, err
	}
	t := &buf.Tensor
	t.Dims, t.Vals = blk.Dims, append(t.Vals[:0], blk.Vals...)
	if len(t.Inds) != len(blk.Inds) {
		t.Inds = make([][]int32, len(blk.Inds))
	}
	for m, col := range blk.Inds {
		t.Inds[m] = append(t.Inds[m][:0], col...)
	}
	return t, nil
}

// shareFor is place's arithmetic written out forwards: the smallest
// share at which a kernel of that many workers keeps the first pairs
// (mode, block) pairs of src resident — mode-major — and the bytes they
// take: a decode buffer and a sort scratch of the largest block per
// worker, then per pair the block's values and other-mode coordinates
// and a row and an end per segment, at most one per entry and per row.
func shareFor(src sptensor.BlockSource, workers, pairs int) (share, bytes int64) {
	dims, nb, largest := src.Dims(), src.Blocks(), 0
	n := len(dims)
	for b := 0; b < nb; b++ {
		largest = max(largest, src.BlockNNZ(b))
	}
	for p := 0; p < pairs; p++ {
		nnz := src.BlockNNZ(p % nb)
		bytes += int64(nnz)*int64(4*(n-1)+8) + 8*int64(min(nnz, dims[p/nb]))
	}
	return int64(workers*largest)*int64(4*n+12) + bytes, bytes
}

// arenaBytes is what the kernel's slabs hold, used or not.
func arenaBytes(k *Kernel) int64 {
	return int64(4*cap(k.ints) + 8*cap(k.vals))
}

// TestStreamResidentMatchesPlan is the identity the residency must not
// touch, and its accounting: at no share, a share that holds a mode and
// a half, one that holds all but the last pair and one that holds
// everything, for 2-, 3- and 4-mode sources with ragged, empty and
// single-row blocks and worker counts 1, 2 and 4, two passes per mode
// equal Sequential bit for bit; the kernel reports exactly the bytes
// shareFor predicts and its slabs hold them without overdrawing the
// share; and a pass decodes exactly the blocks of its mode's pairs that
// are not resident — with everything resident, none after the compile.
func TestStreamResidentMatchesPlan(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	srcs := rowOwnerSources(t)
	srcs["two-mode"] = blockFile(t, streamTensor(t, []int{90, 70}, 3000, 51, true), 400)
	srcs["four-mode"] = blockFile(t, streamTensor(t, []int{12, 9, 14, 8}, 3000, 52, false), 300)
	srcs["decoded-odd"] = &decodingSource{BlockSource: srcs["empty-and-single-row"]}
	for name, src := range srcs {
		n, nb := len(src.Dims()), src.Blocks()
		counted, _ := src.(*decodingSource)
		for _, workers := range []int{1, 2, 4} {
			c := NewComputerWithPool(workers, pool)
			tw := newStreamTwin(src, 9)
			for _, pairs := range []int{0, nb + nb/2, n*nb - 1, n * nb} {
				label := fmt.Sprintf("%s workers=%d pairs=%d", name, workers, pairs)
				share, bytes := shareFor(src, workers, pairs)
				k := NewKernel(c)
				k.SetShare(share)
				if counted != nil {
					counted.decodes.Store(0)
				}
				tw.check(t, label+" first pass", tw.via(k))
				tw.check(t, label+" second pass", tw.via(k))
				if got := k.Residency(); got.Bytes != bytes {
					t.Fatalf("%s: resident %+v, want %d bytes", label, got, bytes)
				}
				if held := arenaBytes(k); held < bytes || held > share {
					t.Fatalf("%s: slabs hold %d bytes for %d resident in a share of %d", label, held, bytes, share)
				}
				if counted == nil || workers != 1 {
					continue
				}
				want := int64(nb)
				for p := 0; p < n*nb; p++ {
					if p >= k.kept && src.BlockNNZ(p%nb) > 0 {
						want += 2
					}
				}
				if got := counted.decodes.Load(); got != want {
					t.Fatalf("%s: %d decodes, want %d (%d pairs resident)", label, got, want, k.kept)
				}
			}
		}
	}
}

// TestStreamArenaWithinShare hands one kernel, and so one set of grow-only
// slabs, sources of very different sizes under one share: whatever
// pairs each keeps, the slabs' capacities never sum to more than the
// share, and every source still equals Sequential.
func TestStreamArenaWithinShare(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	c := NewComputerWithPool(2, pool)
	small := blockFile(t, streamTensor(t, []int{60, 50, 40}, 1500, 61, false), 200)
	large := blockFile(t, streamTensor(t, []int{60, 50, 40}, 9000, 62, false), 1200)
	// Everything of small fits; of large, a mode and three pairs.
	share, _ := shareFor(large, 2, large.Blocks()+3)
	k := NewKernel(c)
	k.SetShare(share)
	for round, src := range []sptensor.BlockSource{small, large, small, large} {
		tw := newStreamTwin(src, 8)
		tw.check(t, fmt.Sprintf("round %d", round), tw.via(k))
		res := k.Residency()
		if all := src == sptensor.BlockSource(small); all != (res.Share() == 1) || res.Bytes == 0 {
			t.Fatalf("round %d: resident %+v of share %d", round, res, share)
		}
		if held := arenaBytes(k); held > share {
			t.Fatalf("round %d: slabs hold %d bytes of a %d-byte share", round, held, share)
		}
	}
}

// TestStreamResidentFaults corrupts a block whose mode-1 pair is resident
// and a block whose mode-1 pair streams, after Begin has sorted the
// resident pairs under a partial share. The mode-1 pass never reads the
// first block again, so it reports the second; that drops the source,
// so the recompile meets the first; and once the file is whole the
// kernel — decoding afresh — equals Sequential again.
func TestStreamResidentFaults(t *testing.T) {
	x := streamTensor(t, []int{60, 50, 40}, 4000, 43, false)
	r, poke := pokeableFile(t, x)
	const resident, streamed, k = 2, 6, 8
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, workers := range []int{1, 2, 4} {
		share, _ := shareFor(r, workers, r.Blocks()+resident+1)
		kern := NewKernel(NewComputerWithPool(workers, pool))
		kern.SetShare(share)
		tw := newStreamTwin(r, k)
		tw.check(t, fmt.Sprintf("workers=%d before", workers), tw.via(kern))
		oldResident, oldStreamed := poke(resident, 0x7f), poke(streamed, 0x7f)
		out := dense.NewMatrix(x.Dims[1], k)
		pass := tw.via(kern)
		if err := pass(out, 1); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("mttkrp: block %d:", streamed)) {
			t.Fatalf("workers=%d: pass error %v, want block %d", workers, err, streamed)
		}
		poke(streamed, oldStreamed)
		if err := pass(out, 1); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("mttkrp: block %d:", resident)) {
			t.Fatalf("workers=%d: compile error %v, want block %d", workers, err, resident)
		}
		poke(resident, oldResident)
		tw.check(t, fmt.Sprintf("workers=%d after repair", workers), tw.via(kern))
	}
}
