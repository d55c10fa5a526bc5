package dense

// Add computes dst = a + b element-wise. dst may alias a or b.
func Add(dst, a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(dst, a)
	for i := 0; i < a.Rows; i++ {
		da, ra, rb := dst.Row(i), a.Row(i), b.Row(i)
		for j := range da {
			da[j] = ra[j] + rb[j]
		}
	}
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(dst, a)
	for i := 0; i < a.Rows; i++ {
		da, ra, rb := dst.Row(i), a.Row(i), b.Row(i)
		for j := range da {
			da[j] = ra[j] - rb[j]
		}
	}
}

// Scale computes dst = alpha * a. dst may alias a.
func Scale(dst *Matrix, alpha float64, a *Matrix) {
	checkSameShape(dst, a)
	for i := 0; i < a.Rows; i++ {
		da, ra := dst.Row(i), a.Row(i)
		for j := range da {
			da[j] = alpha * ra[j]
		}
	}
}

// Hadamard computes dst = a ⊛ b (element-wise product). dst may alias.
func Hadamard(dst, a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(dst, a)
	for i := 0; i < a.Rows; i++ {
		da, ra, rb := dst.Row(i), a.Row(i), b.Row(i)
		for j := range da {
			da[j] = ra[j] * rb[j]
		}
	}
}

// AddScaledIdentity computes dst = a + alpha*I for square a. dst may
// alias a.
func AddScaledIdentity(dst *Matrix, a *Matrix, alpha float64) {
	if a.Rows != a.Cols {
		panic("dense: AddScaledIdentity on non-square matrix")
	}
	checkSameShape(dst, a)
	if dst != a {
		dst.CopyFrom(a)
	}
	for i := 0; i < a.Rows; i++ {
		dst.Data[i*dst.Stride+i] += alpha
	}
}

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(a *Matrix) float64 {
	if a.Rows != a.Cols {
		panic("dense: Trace of non-square matrix")
	}
	t := 0.0
	for i := 0; i < a.Rows; i++ {
		t += a.Data[i*a.Stride+i]
	}
	return t
}

// FrobNorm2 returns the squared Frobenius norm ‖a‖²_F.
func FrobNorm2(a *Matrix) float64 {
	sum := 0.0
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for _, v := range row {
			sum += v * v
		}
	}
	return sum
}

// FrobNorm2Diff returns ‖a-b‖²_F without materializing the difference.
func FrobNorm2Diff(a, b *Matrix) float64 {
	checkSameShape(a, b)
	sum := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			d := ra[j] - rb[j]
			sum += d * d
		}
	}
	return sum
}

// ColNorms2 accumulates the squared 2-norm of each column of a into
// dst (len ≥ a.Cols). dst is not zeroed first so callers can accumulate
// across row blocks.
func ColNorms2(dst []float64, a *Matrix) {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst[j] += v * v
		}
	}
}

// ScaleColumns computes dst[i][j] = a[i][j] * d[j]; dst may alias a.
func ScaleColumns(dst, a *Matrix, d []float64) {
	checkSameShape(dst, a)
	for i := 0; i < a.Rows; i++ {
		da, ra := dst.Row(i), a.Row(i)
		for j := range da {
			da[j] = ra[j] * d[j]
		}
	}
}

// ScaleRows computes dst[i][j] = a[i][j] * d[i]; dst may alias a.
func ScaleRows(dst, a *Matrix, d []float64) {
	checkSameShape(dst, a)
	for i := 0; i < a.Rows; i++ {
		da, ra := dst.Row(i), a.Row(i)
		s := d[i]
		for j := range da {
			da[j] = ra[j] * s
		}
	}
}

// GatherRows copies rows idx of src into a new len(idx)×src.Cols matrix:
// out.Row(r) = src.Row(idx[r]). This is the A_nz ← A[nz] "gather" of
// spCP-stream.
func GatherRows(src *Matrix, idx []int) *Matrix {
	out := NewMatrix(len(idx), src.Cols)
	for r, i := range idx {
		copy(out.Row(r), src.Row(i))
	}
	return out
}

// GatherRowsInto is GatherRows into preallocated dst (len(idx)×src.Cols).
func GatherRowsInto(dst, src *Matrix, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("dense: GatherRowsInto shape mismatch")
	}
	for r, i := range idx {
		copy(dst.Row(r), src.Row(i))
	}
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: shape mismatch")
	}
}
