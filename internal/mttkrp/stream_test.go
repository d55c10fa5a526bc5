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

// TestStreamMatchesPlan checks that the streamed kernels are
// bit-identical to the in-memory plan kernels on the materialized
// concatenation of the blocks, for worker counts below, at, and above
// the pool size, on random, skewed, and degenerate tensors.
func TestStreamMatchesPlan(t *testing.T) {
	pool := parallel.NewPool(4)
	cases := []struct {
		name string
		x    *sptensor.Tensor
	}{
		{"random", streamTensor(t, []int{50, 40, 60}, 5000, 1, false)},
		{"skewed", streamTensor(t, []int{200, 30, 100}, 8000, 2, true)},
		{"degenerate", streamTensor(t, []int{1, 3, 2}, 64, 3, false)},
		{"mode4", streamTensor(t, []int{12, 9, 14, 8}, 2000, 4, false)},
		{"empty", sptensor.New(5, 5, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := sptensor.SplitBlocks(tc.x, 700)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 7} {
				c := NewComputerWithPool(workers, pool)
				newStreamTwin(t, c, src, 9).check(t, NewStreamKernel(c), fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

// TestStreamMatchesPlanOnBlockFile runs the same bit-identity check
// through a real .spblk file — mmap reader, CRC verification and all —
// so the full out-of-core read path is covered, not just MemBlocks.
func TestStreamMatchesPlanOnBlockFile(t *testing.T) {
	r := blockFile(t, streamTensor(t, []int{80, 50, 70}, 6000, 7, true), 512)
	pool := parallel.NewPool(4)
	for _, workers := range []int{1, 4, 7} {
		c := NewComputerWithPool(workers, pool)
		newStreamTwin(t, c, r, 12).check(t, NewStreamKernel(c), fmt.Sprintf("workers=%d", workers))
	}
}

// TestStreamKernelAllocFree checks the steady-state allocation contract:
// after the first call has grown the scratch, repeated streamed MTTKRP
// evaluations allocate nothing.
func TestStreamKernelAllocFree(t *testing.T) {
	x := streamTensor(t, []int{60, 45, 55}, 6000, 11, false)
	src, err := sptensor.SplitBlocks(x, 900)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	rng := rand.New(rand.NewSource(21))
	factors := randFactors(rng, x.Dims, k)
	c := NewComputerWithPool(2, parallel.NewPool(2))
	sk := NewStreamKernel(c)
	out := dense.NewMatrix(x.Dims[0], k)
	// Warm-up growth pass over every mode.
	for mode := range x.Dims {
		o := dense.NewMatrix(x.Dims[mode], k)
		if err := sk.MTTKRP(o, src, factors, mode); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := sk.MTTKRP(out, src, factors, 0); err != nil {
			t.Fatal(err)
		}
	})
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

// streamTwin is what the streamed kernels must reproduce bit for bit:
// the plan kernels on the materialized concatenation of src.
type streamTwin struct {
	c       *Computer
	src     sptensor.BlockSource
	mat     *sptensor.Tensor
	plan    *Plan
	factors []*dense.Matrix
}

func newStreamTwin(t *testing.T, c *Computer, src sptensor.BlockSource, k int) *streamTwin {
	t.Helper()
	mat, err := sptensor.MaterializeBlocks(src)
	if err != nil {
		t.Fatal(err)
	}
	return &streamTwin{c: c, src: src, mat: mat, plan: c.NewPlan(mat),
		factors: randFactors(rand.New(rand.NewSource(int64(k))), src.Dims(), k)}
}

// check runs every mode's MTTKRP through sk and compares the bits with
// the plan kernels.
func (tw *streamTwin) check(t *testing.T, sk *StreamKernel, label string) {
	t.Helper()
	k := tw.factors[0].Cols
	for mode, d := range tw.src.Dims() {
		want, got := dense.NewMatrix(d, k), dense.NewMatrix(d, k)
		tw.c.PlanMTTKRP(want, tw.plan, tw.factors, mode)
		if err := sk.MTTKRP(got, tw.src, tw.factors, mode); err != nil {
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
	split := func(x *sptensor.Tensor, n int) sptensor.BlockSource {
		src, err := sptensor.SplitBlocks(x, n)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
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
		"run-blocks": split(streamTensor(t, []int{50, 40, 60}, 5000, 33, false), 700),
		// Hot low rows pull a balanced boundary inside the first slab.
		"skewed-grid":          blockFile(t, streamTensor(t, []int{200, 30, 100}, 8000, 34, true), 1000),
		"empty-and-single-row": odd,
	}
}

// TestStreamRowOwnerMatchesPlan is the row-ownership identity: whatever
// rows and blocks a worker count hands each worker, every output row
// still sums its entries in (block order, entry order), so the bits
// equal the plan kernel's on the materialized twin.
func TestStreamRowOwnerMatchesPlan(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for name, src := range rowOwnerSources(t) {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			c := NewComputerWithPool(workers, pool)
			sk := NewStreamKernel(c)
			for _, k := range []int{7, 16, 17} {
				newStreamTwin(t, c, src, k).check(t, sk, fmt.Sprintf("%s workers=%d K=%d", name, workers, k))
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
// eighth of a worker's share), so two workers open that slab.
func TestStreamScheduleSnapsToSlabs(t *testing.T) {
	srcs := rowOwnerSources(t)
	pool := parallel.NewPool(2)
	defer pool.Close()
	sk := NewStreamKernel(NewComputerWithPool(2, pool))
	if err := sk.Begin(srcs["grid-2x2x2"]); err != nil {
		t.Fatal(err)
	}
	for m := range sk.modes {
		sm := &sk.modes[m]
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
	sk = NewStreamKernel(NewComputerWithPool(3, pool))
	if err := sk.Begin(srcs["skewed-grid"]); err != nil {
		t.Fatal(err)
	}
	sm := &sk.modes[0]
	if b := sm.blks[sm.blkPtr[1]]; sm.lo[b] >= sm.rows[1] {
		t.Fatalf("skewed mode 0: boundary %d is on a slab edge (block %d starts at %d), want it inside the slab", sm.rows[1], b, sm.lo[b])
	}
}

// TestStreamAlternatingSources drives one kernel the way the repo
// benchmark does — MTTKRP called directly, never Begin —
// on two sources in turn: the kernel must notice the switch each time.
func TestStreamAlternatingSources(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	srcs := rowOwnerSources(t)
	for _, workers := range []int{1, 3} {
		c := NewComputerWithPool(workers, pool)
		sk := NewStreamKernel(c)
		a := newStreamTwin(t, c, srcs["grid-2x2x2"], 9)
		b := newStreamTwin(t, c, srcs["run-blocks"], 9)
		for round := 0; round < 3; round++ {
			a.check(t, sk, fmt.Sprintf("workers=%d round %d source a", workers, round))
			b.check(t, sk, fmt.Sprintf("workers=%d round %d source b", workers, round))
		}
	}
}

// TestStreamBeginAllocFree extends the steady-state contract to the
// per-slice compile step: once the buffers have seen both sources, a
// slice's worth of work — Begin, three MTTKRPs, End —
// allocates nothing on either, with no share and with the arena filled
// from one (the file's blocks and both sources' permutations).
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
		sk := NewStreamKernel(NewComputerWithPool(2, pool))
		sk.SetShare(share)
		slice := func() {
			for i, src := range pair {
				if err := sk.Begin(src); err != nil {
					t.Fatal(err)
				}
				if (sk.Residency().Share() == 1) != (share > 0) {
					t.Fatalf("share %d: resident %+v", share, sk.Residency())
				}
				for mode, out := range outs[i] {
					if err := sk.MTTKRP(out, src, factors[i], mode); err != nil {
						t.Fatal(err)
					}
				}
				sk.End()
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
// usual way, without a panic, and that the kernel works again once the
// file is whole.
func TestStreamDecodeErrorLowestBlock(t *testing.T) {
	x := streamTensor(t, []int{60, 50, 40}, 4000, 41, false)
	r, poke := pokeableFile(t, x)
	const lowBad, highBad = 2, 6
	pool := parallel.NewPool(4)
	defer pool.Close()
	const k = 8
	for _, workers := range []int{1, 2, 4} {
		c := NewComputerWithPool(workers, pool)
		sk := NewStreamKernel(c)
		tw := newStreamTwin(t, c, r, k)
		if err := sk.Begin(r); err != nil {
			t.Fatal(err)
		}
		oldHigh, oldLow := poke(highBad, 0x7f), poke(lowBad, 0x7f)
		want := fmt.Sprintf("mttkrp: block %d: ooc: block %d mode-0 coordinate", lowBad, lowBad)
		for mode := range x.Dims {
			o := dense.NewMatrix(x.Dims[mode], k)
			if err := sk.MTTKRP(o, r, tw.factors, mode); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("workers=%d mode %d: error %v, want prefix %q", workers, mode, err, want)
			}
			// The failed pass dropped the source; compile again while the
			// second bad block is the only one to find.
			poke(lowBad, oldLow)
			if err := sk.Begin(r); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("mttkrp: block %d:", highBad)) {
				t.Fatalf("workers=%d: Begin error %v, want block %d", workers, err, highBad)
			}
			poke(highBad, oldHigh)
			if err := sk.Begin(r); err != nil {
				t.Fatal(err)
			}
			poke(highBad, 0x7f)
			poke(lowBad, 0x7f)
		}
		poke(highBad, oldHigh)
		poke(lowBad, oldLow)
		tw.check(t, sk, fmt.Sprintf("workers=%d after repair", workers))
	}
}

// decodingSource serves another source's blocks the way a reader does —
// copied into the caller's buffer — and counts the calls, so a MemBlocks
// layout (empty and single-row blocks included) is worth keeping in the
// arena.
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

// shareFor is plan's arithmetic written out forwards: the smallest share
// at which a kernel of that many workers keeps the permutations of the
// first pairs (mode, block) pairs of src — mode-major — and decoded
// copies of its first blocks blocks, and the bytes of each it then holds.
func shareFor(src sptensor.BlockSource, workers, pairs, blocks int) (share, permBytes, blockBytes int64) {
	nb, entry, largest := src.Blocks(), int64(4*len(src.Dims())+8), 0
	for b := 0; b < nb; b++ {
		largest = max(largest, src.BlockNNZ(b))
	}
	for p := 0; p < pairs; p++ {
		permBytes += 4 * int64(src.BlockNNZ(p%nb))
	}
	for b := 0; b < blocks; b++ {
		blockBytes += entry * int64(src.BlockNNZ(b))
	}
	return int64(workers*largest)*(entry+4) + permBytes + blockBytes, permBytes, blockBytes
}

// arenaBytes is what the kernel's slabs hold, used or not.
func arenaBytes(sk *StreamKernel) int64 {
	return int64(4*cap(sk.ints) + 8*cap(sk.vals))
}

// TestStreamResidentMatchesPlan is the identity the arena must not
// touch: at no share, one that holds some permutations only, one that
// holds them all and half the blocks, and one that holds everything, for
// 2-, 3- and 4-mode sources with ragged, empty and single-row blocks and
// worker counts 1, 2 and 4, the first pass (which sorts into the arena)
// and a second (which reads it back) both equal the plan kernels bit for
// bit; the kernel reports exactly the bytes shareFor predicts and its
// slabs hold them without overdrawing the arena; a source that serves
// its own storage keeps permutations only; and with everything resident
// nothing is decoded after Begin.
func TestStreamResidentMatchesPlan(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	srcs := rowOwnerSources(t)
	srcs["two-mode"] = blockFile(t, streamTensor(t, []int{90, 70}, 3000, 51, true), 400)
	srcs["four-mode"] = blockFile(t, streamTensor(t, []int{12, 9, 14, 8}, 3000, 52, false), 300)
	srcs["decoded-odd"] = &decodingSource{BlockSource: srcs["empty-and-single-row"]}
	for name, src := range srcs {
		n, nb := len(src.Dims()), src.Blocks()
		_, own := src.(*sptensor.MemBlocks)
		counted, _ := src.(*decodingSource)
		for _, workers := range []int{1, 2, 4} {
			c := NewComputerWithPool(workers, pool)
			tw := newStreamTwin(t, c, src, 9)
			for _, keep := range [][2]int{{0, 0}, {nb + nb/2, 0}, {n * nb, nb / 2}, {n * nb, nb}} {
				label := fmt.Sprintf("%s workers=%d pairs=%d blocks=%d", name, workers, keep[0], keep[1])
				share, permBytes, blockBytes := shareFor(src, workers, keep[0], keep[1])
				arena := permBytes + blockBytes // what the share leaves after the workers' buffers
				if own {
					blockBytes = 0
				}
				sk := NewStreamKernel(c)
				sk.SetShare(share)
				if counted != nil {
					counted.decodes.Store(0)
				}
				tw.check(t, sk, label+" sorting pass")
				tw.check(t, sk, label+" resident pass")
				if got := sk.Residency(); got.PermBytes != permBytes || got.BlockBytes != blockBytes {
					t.Fatalf("%s: resident %+v, want %d permutation and %d block bytes", label, got, permBytes, blockBytes)
				}
				if held := arenaBytes(sk); held < permBytes+blockBytes || held > arena {
					t.Fatalf("%s: slabs hold %d bytes for %d resident in an arena of %d", label, held, permBytes+blockBytes, arena)
				}
				if keep[1] == nb && counted != nil && counted.decodes.Load() != int64(nb) {
					t.Fatalf("%s: %d decodes of %d blocks with everything resident", label, counted.decodes.Load(), nb)
				}
			}
		}
	}
}

// TestStreamArenaWithinShare hands one kernel, and so one set of grow-only
// slabs, sources of very different sizes under one share: whatever mix
// of permutations and blocks each keeps, the slabs' capacities never sum
// to more than the share, and every source still equals the plan.
func TestStreamArenaWithinShare(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	c := NewComputerWithPool(2, pool)
	small := blockFile(t, streamTensor(t, []int{60, 50, 40}, 1500, 61, false), 200)
	large := blockFile(t, streamTensor(t, []int{60, 50, 40}, 9000, 62, false), 1200)
	// Everything of small fits; of large, not even the permutations.
	share, _, _ := shareFor(large, 2, large.Blocks()+3, 0)
	sk := NewStreamKernel(c)
	sk.SetShare(share)
	for round, src := range []sptensor.BlockSource{small, large, small, large} {
		newStreamTwin(t, c, src, 8).check(t, sk, fmt.Sprintf("round %d", round))
		res := sk.Residency()
		if all := src == sptensor.BlockSource(small); all != (res.Share() == 1) || res.PermBytes == 0 {
			t.Fatalf("round %d: resident %+v of share %d", round, res, share)
		}
		if held := arenaBytes(sk); held > share {
			t.Fatalf("round %d: slabs hold %d bytes of a %d-byte share", round, held, share)
		}
	}
}

// TestStreamResidentFaults corrupts a resident block and a streamed one
// after Begin has filled the arena from a partial share. The pass never
// reads the resident block again, so it reports the streamed one; that
// drops everything resident, so the recompile meets the other at fill;
// and once the file is whole the kernel — decoding afresh — equals the
// plan again.
func TestStreamResidentFaults(t *testing.T) {
	x := streamTensor(t, []int{60, 50, 40}, 4000, 43, false)
	r, poke := pokeableFile(t, x)
	const resident, streamed, k = 2, 6, 8
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, workers := range []int{1, 2, 4} {
		c := NewComputerWithPool(workers, pool)
		share, _, _ := shareFor(r, workers, 3*r.Blocks(), 4)
		sk := NewStreamKernel(c)
		sk.SetShare(share)
		tw := newStreamTwin(t, c, r, k)
		tw.check(t, sk, fmt.Sprintf("workers=%d before", workers))
		oldResident, oldStreamed := poke(resident, 0x7f), poke(streamed, 0x7f)
		out := dense.NewMatrix(x.Dims[1], k)
		if err := sk.MTTKRP(out, r, tw.factors, 1); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("mttkrp: block %d:", streamed)) {
			t.Fatalf("workers=%d: pass error %v, want block %d", workers, err, streamed)
		}
		poke(streamed, oldStreamed)
		if err := sk.MTTKRP(out, r, tw.factors, 1); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("mttkrp: block %d:", resident)) {
			t.Fatalf("workers=%d: fill error %v, want block %d", workers, err, resident)
		}
		poke(resident, oldResident)
		tw.check(t, sk, fmt.Sprintf("workers=%d after repair", workers))
	}
}
