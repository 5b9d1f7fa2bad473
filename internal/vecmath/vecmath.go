// Package vecmath provides the vector and matrix kernels used by the
// gradient computations and the coding-scheme encoders/decoders.
//
// Matrices come in two storage forms behind the AnyMatrix interface: dense
// row-major (Matrix) and compressed sparse row (CSR, see sparse.go), whose
// row kernels cost O(nnz) instead of O(cols) — with bit-identical results
// on finite data holding the same nonzeros.
//
// Every kernel is serial. The master splits decode work across cores one
// level up, by handing each of its MasterShards goroutines a contiguous
// coordinate slice (see the cluster package), never inside a kernel.
package vecmath

import (
	"fmt"
	"math"
)

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Dot returns the inner product of x and y. It panics if lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Axpy computes y += alpha*x in place. It panics if lengths differ.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale computes x *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes z = x + y into a fresh slice.
func Add(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Add length mismatch %d vs %d", len(x), len(y)))
	}
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] + y[i]
	}
	return z
}

// Sub computes z = x - y into a fresh slice.
func Sub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Sub length mismatch %d vs %d", len(x), len(y)))
	}
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] - y[i]
	}
	return z
}

// AddInto accumulates src into dst in place.
func AddInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vecmath: AddInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow by
// scaling (as in the reference BLAS dnrm2).
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute element of x (0 for empty x).
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns max_i |x_i - y_i|; a convenience for tests and
// convergence checks.
func MaxAbsDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: MaxAbsDiff length mismatch %d vs %d", len(x), len(y)))
	}
	var m float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}

// Matrix is a dense row-major matrix. Rows*Cols == len(Data).
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("vecmath: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns the i-th row as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Gemv computes y = A*x for a row-major matrix A. It panics on dimension
// mismatch. The returned slice is freshly allocated.
func Gemv(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	GemvInto(y, a, x)
	return y
}

// GemvInto computes dst = A*x in place, fully overwriting dst. It panics on
// dimension mismatch. This is the allocation-free form of Gemv for callers
// that hold a reusable output buffer.
func GemvInto(dst []float64, a *Matrix, x []float64) {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("vecmath: Gemv dimension mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	if len(dst) != a.Rows {
		panic(fmt.Sprintf("vecmath: GemvInto output length %d != %d rows", len(dst), a.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		dst[i] = Dot(a.Row(i), x)
	}
}

// GemvT computes y = A^T*x. It panics on dimension mismatch.
func GemvT(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Cols)
	GemvTInto(y, a, x)
	return y
}

// GemvTInto computes dst = A^T*x in place, fully overwriting dst. It panics
// on dimension mismatch. It sweeps the rows once in order, accumulating
// dst[j] += x[i]*A[i][j], so every output element folds its row terms in row
// order.
func GemvTInto(dst []float64, a *Matrix, x []float64) {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("vecmath: GemvT dimension mismatch %dx%d ^T * %d", a.Rows, a.Cols, len(x)))
	}
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("vecmath: GemvTInto output length %d != %d cols", len(dst), a.Cols))
	}
	Fill(dst, 0)
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		row := a.Row(i)
		for j := range dst {
			dst[j] += xi * row[j]
		}
	}
}

// SumVectors returns the element-wise sum of the given equal-length vectors.
// It panics if vs is empty or lengths differ. This is the "compress by
// summation" primitive of the BCC and uncoded schemes (paper eq. 12).
func SumVectors(vs [][]float64) []float64 {
	if len(vs) == 0 {
		panic("vecmath: SumVectors of empty set")
	}
	out := make([]float64, len(vs[0]))
	SumVectorsInto(out, vs)
	return out
}

// SumVectorsInto computes the element-wise sum of vs into dst, fully
// overwriting it (dst's prior contents are irrelevant, so pooled buffers can
// be passed directly). The vectors are folded in slice order, so the result
// is bit-for-bit identical to SumVectors. It panics if vs is empty or any
// length disagrees with dst.
func SumVectorsInto(dst []float64, vs [][]float64) {
	if len(vs) == 0 {
		panic("vecmath: SumVectorsInto of empty set")
	}
	if len(dst) != len(vs[0]) {
		panic(fmt.Sprintf("vecmath: SumVectorsInto output length %d != %d", len(dst), len(vs[0])))
	}
	copy(dst, vs[0])
	for _, v := range vs[1:] {
		AddInto(dst, v)
	}
}

// LinearCombination returns sum_i coeffs[i]*vs[i]. It panics if the slice
// lengths disagree or vs is empty. This is the encoding primitive of the
// coded schemes (cyclicrep, nested): each worker transmits one linear
// combination of its partial gradients.
func LinearCombination(coeffs []float64, vs [][]float64) []float64 {
	if len(vs) == 0 {
		panic("vecmath: LinearCombination of empty set")
	}
	out := make([]float64, len(vs[0]))
	LinearCombinationInto(out, coeffs, vs)
	return out
}

// LinearCombinationInto computes sum_i coeffs[i]*vs[i] into dst, fully
// overwriting it. The accumulation starts from zero and folds terms in slice
// order — the same operation sequence as LinearCombination, so results are
// bit-for-bit identical. It panics on arity or length mismatches.
func LinearCombinationInto(dst []float64, coeffs []float64, vs [][]float64) {
	if len(vs) == 0 {
		panic("vecmath: LinearCombinationInto of empty set")
	}
	if len(coeffs) != len(vs) {
		panic(fmt.Sprintf("vecmath: LinearCombinationInto arity mismatch %d vs %d", len(coeffs), len(vs)))
	}
	if len(dst) != len(vs[0]) {
		panic(fmt.Sprintf("vecmath: LinearCombinationInto output length %d != %d", len(dst), len(vs[0])))
	}
	Fill(dst, 0)
	for i, v := range vs {
		Axpy(coeffs[i], v, dst)
	}
}
