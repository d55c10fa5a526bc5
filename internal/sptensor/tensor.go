// Package sptensor implements the sparse-tensor substrate for CP-stream:
// a coordinate-format (COO) sparse tensor, streaming-slice extraction
// along a designated time mode, nonzero-slice (index-set) analysis,
// FROSTT text and binary I/O, and mode histograms.
//
// Storage is struct-of-arrays: one int32 index column per mode plus one
// value column. Index columns are the natural layout for MTTKRP, which
// streams all nonzeros and touches every mode's index.
package sptensor

import (
	"fmt"
	"math"
	"math/bits"
)

// Tensor is an N-way sparse tensor in coordinate format. Nonzero e has
// coordinates (Inds[0][e], …, Inds[N-1][e]) and value Vals[e]. Indices
// are 0-based and must lie in [0, Dims[m]).
type Tensor struct {
	Dims []int
	Inds [][]int32
	Vals []float64
}

// New creates an empty tensor with the given mode lengths.
func New(dims ...int) *Tensor {
	t := &Tensor{Dims: append([]int(nil), dims...), Inds: make([][]int32, len(dims))}
	return t
}

// NModes returns the number of modes.
func (t *Tensor) NModes() int { return len(t.Dims) }

// NNZ returns the number of stored nonzeros.
func (t *Tensor) NNZ() int { return len(t.Vals) }

// Append adds one nonzero. idx must have one coordinate per mode.
func (t *Tensor) Append(idx []int32, val float64) {
	if len(idx) != len(t.Dims) {
		panic(fmt.Sprintf("sptensor: Append with %d coordinates for %d modes", len(idx), len(t.Dims)))
	}
	for m, i := range idx {
		t.Inds[m] = append(t.Inds[m], i)
	}
	t.Vals = append(t.Vals, val)
}

// Reserve grows capacity for n additional nonzeros.
func (t *Tensor) Reserve(n int) {
	for m := range t.Inds {
		if cap(t.Inds[m])-len(t.Inds[m]) < n {
			grown := make([]int32, len(t.Inds[m]), len(t.Inds[m])+n)
			copy(grown, t.Inds[m])
			t.Inds[m] = grown
		}
	}
	if cap(t.Vals)-len(t.Vals) < n {
		grown := make([]float64, len(t.Vals), len(t.Vals)+n)
		copy(grown, t.Vals)
		t.Vals = grown
	}
}

// Validate checks structural invariants: equal column lengths and
// in-range indices. It returns a descriptive error for the first
// violation found.
func (t *Tensor) Validate() error {
	if len(t.Inds) != len(t.Dims) {
		return fmt.Errorf("sptensor: %d index columns for %d modes", len(t.Inds), len(t.Dims))
	}
	for m, col := range t.Inds {
		if len(col) != len(t.Vals) {
			return fmt.Errorf("sptensor: mode %d has %d indices, %d values", m, len(col), len(t.Vals))
		}
		dim := int32(t.Dims[m])
		for e, i := range col {
			if i < 0 || i >= dim {
				return fmt.Errorf("sptensor: nonzero %d mode %d index %d out of range [0,%d)", e, m, i, dim)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{
		Dims: append([]int(nil), t.Dims...),
		Inds: make([][]int32, len(t.Inds)),
		Vals: append([]float64(nil), t.Vals...),
	}
	for m := range t.Inds {
		out.Inds[m] = append([]int32(nil), t.Inds[m]...)
	}
	return out
}

// Merge folds every nonzero of other into t, coalescing duplicate
// coordinates — both across the two tensors and within each — so the
// result stores each coordinate once with the summed value (exact
// zeros produced by cancellation are dropped). Merging to or from an
// empty tensor works: the result is the other operand, coalesced. The
// tensors must agree on mode count and every mode length; a mismatch
// is rejected without mutating t. The ingestion layer uses Merge to
// fold a pending window into its neighbour under the Coalesce shed
// policy, where duplicated nonzeros would silently double-count
// events.
func (t *Tensor) Merge(other *Tensor) error {
	if len(other.Dims) != len(t.Dims) {
		return fmt.Errorf("sptensor: Merge of %d-mode tensor into %d-mode tensor", len(other.Dims), len(t.Dims))
	}
	for m := range t.Dims {
		if t.Dims[m] != other.Dims[m] {
			return fmt.Errorf("sptensor: Merge mode %d length mismatch (%d ≠ %d)", m, other.Dims[m], t.Dims[m])
		}
	}
	if other.NNZ() == 0 {
		// Still canonicalize: the contract is unique coordinates out.
		t.Coalesce()
		return nil
	}
	for m := range t.Inds {
		t.Inds[m] = append(t.Inds[m], other.Inds[m]...)
	}
	t.Vals = append(t.Vals, other.Vals...)
	t.Coalesce()
	return nil
}

// Norm2 returns the squared Frobenius norm Σ val², assuming coordinates
// are unique (duplicates would need coalescing first).
func (t *Tensor) Norm2() float64 {
	sum := 0.0
	for _, v := range t.Vals {
		sum += v * v
	}
	return sum
}

// SortByMode sorts nonzeros lexicographically with the given mode as the
// primary key and the remaining modes, in mode order, as tie-breakers.
// The sort is stable: nonzeros with equal coordinates keep their input
// order, which is what makes Coalesce sum duplicates in arrival order.
//
// It is an LSD radix sort over the key modes, last tie-breaker first, in
// O(nnz) per pass. A mode's passes cover only the span max−min of its
// coordinates in digits of at most radixBits bits, so the histogram
// never grows with the mode's length: a small window in a long mode
// costs a pass or two of a few hundred buckets. Input already in order
// skips the passes. The permutation is int32, ping-ponged between two
// buffers and applied once; a tensor sorted here holds fewer than 2³¹
// nonzeros.
func (t *Tensor) SortByMode(mode int) {
	n := t.NNZ()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sptensor: SortByMode of %d nonzeros (limit %d)", n, math.MaxInt32))
	}
	// One allocation for both buffers: no more than the []int the
	// permutation used to be.
	buf := make([]int32, 2*n)
	perm, spare := buf[:n:n], buf[n:]
	for i := range perm {
		perm[i] = int32(i)
	}
	if !t.inOrder(mode) {
		for m := len(t.Dims) - 1; m >= 0; m-- {
			if m != mode {
				perm, spare = radixPasses(t.Inds[m], perm, spare)
			}
		}
		perm, _ = radixPasses(t.Inds[mode], perm, spare)
	}
	t.applyPermutation(perm)
}

// inOrder reports whether the nonzeros already are in SortByMode(mode)'s
// order, as a window of an already-ordered feed is; it stops at the
// first pair out of order, so on unordered input it costs a few
// comparisons.
func (t *Tensor) inOrder(mode int) bool {
	key := t.Inds[mode]
	for e := 1; e < len(key); e++ {
		if key[e-1] != key[e] {
			if key[e-1] > key[e] {
				return false
			}
			continue
		}
		for m, col := range t.Inds {
			if m != mode && col[e-1] != col[e] {
				if col[e-1] > col[e] {
					return false
				}
				break
			}
		}
	}
	return true
}

// radixBits caps a radix digit: 2¹¹ int32 buckets stay in L1.
const radixBits = 11

// radixPasses stably reorders perm by col[perm[i]] with one counting
// pass per digit of the column's span, least significant digit first,
// and returns the reordered permutation and the free buffer. A digit
// every nonzero shares is skipped.
func radixPasses(col, perm, spare []int32) ([]int32, []int32) {
	lo, hi := col[0], col[0]
	for _, c := range col[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	width := bits.Len32(uint32(hi) - uint32(lo))
	if width == 0 {
		return perm, spare
	}
	passes := (width + radixBits - 1) / radixBits
	digit := (width + passes - 1) / passes
	mask := uint32(1)<<digit - 1
	var buckets [1 << radixBits]int32
	count := buckets[:mask+1]
	for shift := 0; shift < width; shift += digit {
		clear(count)
		for _, c := range col {
			count[(uint32(c)-uint32(lo))>>shift&mask]++
		}
		if count[(uint32(col[0])-uint32(lo))>>shift&mask] == int32(len(col)) {
			continue
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, e := range perm {
			d := (uint32(col[e]) - uint32(lo)) >> shift & mask
			spare[count[d]] = e
			count[d]++
		}
		perm, spare = spare, perm
	}
	return perm, spare
}

func (t *Tensor) applyPermutation(perm []int32) {
	for m := range t.Inds {
		col := t.Inds[m]
		next := make([]int32, len(col))
		for i, p := range perm {
			next[i] = col[p]
		}
		t.Inds[m] = next
	}
	vals := make([]float64, len(t.Vals))
	for i, p := range perm {
		vals[i] = t.Vals[p]
	}
	t.Vals = vals
}

// Coalesce sums duplicate coordinates into a single nonzero and drops
// exact zeros. The tensor is left sorted by mode 0.
func (t *Tensor) Coalesce() {
	if t.NNZ() == 0 {
		return
	}
	t.SortByMode(0)
	write := 0
	for read := 0; read < t.NNZ(); read++ {
		if write > 0 && t.sameCoords(write-1, read) {
			t.Vals[write-1] += t.Vals[read]
			continue
		}
		if read != write {
			for m := range t.Inds {
				t.Inds[m][write] = t.Inds[m][read]
			}
			t.Vals[write] = t.Vals[read]
		}
		write++
	}
	// Drop zeros produced by cancellation.
	keep := 0
	for e := 0; e < write; e++ {
		if t.Vals[e] == 0 {
			continue
		}
		if e != keep {
			for m := range t.Inds {
				t.Inds[m][keep] = t.Inds[m][e]
			}
			t.Vals[keep] = t.Vals[e]
		}
		keep++
	}
	for m := range t.Inds {
		t.Inds[m] = t.Inds[m][:keep]
	}
	t.Vals = t.Vals[:keep]
}

func (t *Tensor) sameCoords(a, b int) bool {
	for m := range t.Inds {
		if t.Inds[m][a] != t.Inds[m][b] {
			return false
		}
	}
	return true
}

// Density returns nnz / ∏ dims as a float64 (0 for degenerate shapes).
func (t *Tensor) Density() float64 {
	total := 1.0
	for _, d := range t.Dims {
		total *= float64(d)
	}
	if total == 0 {
		return 0
	}
	return float64(t.NNZ()) / total
}

// String summarizes the tensor shape.
func (t *Tensor) String() string {
	s := "Tensor"
	for m, d := range t.Dims {
		if m == 0 {
			s += fmt.Sprintf(" %d", d)
		} else {
			s += fmt.Sprintf("×%d", d)
		}
	}
	return fmt.Sprintf("%s (%d nnz)", s, t.NNZ())
}
