package vecmath

// This file is the sparse half of the compute plane: the AnyMatrix
// abstraction every gradient kernel is written against, and a CSR
// (compressed sparse row) implementation whose row kernels cost O(nnz of the
// row) instead of O(p). The dense Matrix implements the same interface with
// its existing row-major storage, and — crucially for the cross-runtime
// conformance suites — a CSR matrix holding exactly the nonzeros of a dense
// one produces bit-identical dot products and gradient accumulations on
// finite data: skipping a stored zero skips adding an exact +-0.0 term,
// which cannot change a finite partial sum.

import (
	"fmt"
	"sort"
)

// AnyMatrix is the read-only matrix surface the model gradients and the
// full-matrix kernels are written against. Dense (*Matrix) and sparse
// (*CSR) storage both implement it; the row kernels are the per-example
// hot path (one RowDot + one RowAxpy per data point per gradient), so
// implementations keep them allocation-free.
type AnyMatrix interface {
	// Dims returns (rows, cols).
	Dims() (rows, cols int)
	// At returns element (i, j).
	At(i, j int) float64
	// NNZ returns the number of stored entries (rows*cols for dense).
	NNZ() int
	// RowDot returns the inner product of row i with x (len(x) == cols).
	RowDot(i int, x []float64) float64
	// RowAxpy accumulates dst += alpha * row_i (len(dst) == cols).
	RowAxpy(alpha float64, i int, dst []float64)
	// RowTo gathers row i densely into dst (len(dst) == cols), fully
	// overwriting it.
	RowTo(i int, dst []float64)
	// MulVecInto computes dst = A*x (len(dst) == rows, len(x) == cols).
	MulVecInto(dst, x []float64)
	// MulVecTInto computes dst = A^T*x (len(dst) == cols, len(x) == rows).
	MulVecTInto(dst, x []float64)
}

// ---------------------------------------------------------------------------
// Dense Matrix: AnyMatrix implementation
// ---------------------------------------------------------------------------

// Dims implements AnyMatrix.
func (m *Matrix) Dims() (int, int) { return m.Rows, m.Cols }

// NNZ implements AnyMatrix; every dense entry is stored.
func (m *Matrix) NNZ() int { return m.Rows * m.Cols }

// RowDot implements AnyMatrix with the same serial fold as Dot, so results
// are bit-identical to the historical Dot(m.Row(i), x) call sites.
func (m *Matrix) RowDot(i int, x []float64) float64 { return Dot(m.Row(i), x) }

// RowAxpy implements AnyMatrix.
func (m *Matrix) RowAxpy(alpha float64, i int, dst []float64) { Axpy(alpha, m.Row(i), dst) }

// RowTo implements AnyMatrix.
func (m *Matrix) RowTo(i int, dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("vecmath: RowTo buffer %d != %d cols", len(dst), m.Cols))
	}
	copy(dst, m.Row(i))
}

// MulVecInto implements AnyMatrix via the dense GemvInto kernel.
func (m *Matrix) MulVecInto(dst, x []float64) { GemvInto(dst, m, x) }

// MulVecTInto implements AnyMatrix via GemvTInto.
func (m *Matrix) MulVecTInto(dst, x []float64) { GemvTInto(dst, m, x) }

var _ AnyMatrix = (*Matrix)(nil)

// ---------------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------------

// CSR is a compressed-sparse-row matrix: row i's entries are
// Val[RowPtr[i]:RowPtr[i+1]] at column indices ColIdx[RowPtr[i]:RowPtr[i+1]],
// strictly increasing within each row. All kernels cost O(nnz) instead of
// O(rows*cols).
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1, non-decreasing, RowPtr[0] == 0
	ColIdx     []int // length NNZ, strictly increasing within each row
	Val        []float64
}

// NewCSR validates and wraps raw CSR storage. It returns an error (rather
// than panicking) because the inputs may come from external files.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("vecmath: CSR with negative dimension %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("vecmath: CSR RowPtr length %d != rows+1 = %d", len(rowPtr), rows+1)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("vecmath: CSR RowPtr[0] = %d, want 0", rowPtr[0])
	}
	if len(colIdx) != len(val) {
		return nil, fmt.Errorf("vecmath: CSR ColIdx length %d != Val length %d", len(colIdx), len(val))
	}
	if rowPtr[rows] != len(val) {
		return nil, fmt.Errorf("vecmath: CSR RowPtr[rows] = %d != nnz %d", rowPtr[rows], len(val))
	}
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi {
			return nil, fmt.Errorf("vecmath: CSR RowPtr decreases at row %d", i)
		}
		prev := -1
		for k := lo; k < hi; k++ {
			j := colIdx[k]
			if j < 0 || j >= cols {
				return nil, fmt.Errorf("vecmath: CSR row %d references column %d outside [0,%d)", i, j, cols)
			}
			if j <= prev {
				return nil, fmt.Errorf("vecmath: CSR row %d columns not strictly increasing at entry %d", i, k)
			}
			prev = j
		}
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// CSRFromDense compresses a dense matrix, dropping exact zeros. The result
// reproduces the dense matrix's gradient kernels bit-for-bit on finite data.
func CSRFromDense(m *Matrix) *CSR {
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int, m.Rows+1),
		ColIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				c.ColIdx = append(c.ColIdx, j)
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = len(c.Val)
	}
	return c
}

// ToDense expands the CSR matrix into freshly-allocated dense storage.
func (c *CSR) ToDense() *Matrix {
	m := NewMatrix(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		row := m.Row(i)
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			row[c.ColIdx[k]] = c.Val[k]
		}
	}
	return m
}

// Dims implements AnyMatrix.
func (c *CSR) Dims() (int, int) { return c.Rows, c.Cols }

// NNZ implements AnyMatrix.
func (c *CSR) NNZ() int { return len(c.Val) }

// At implements AnyMatrix by binary search within the row.
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	idx := c.ColIdx[lo:hi]
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		return c.Val[lo+k]
	}
	return 0
}

// RowDot implements AnyMatrix in O(nnz of row i): the stored entries are
// folded in column order, the same order in which the dense kernel meets
// them, so on finite data the result is bit-identical to the dense dot.
func (c *CSR) RowDot(i int, x []float64) float64 {
	if c.Cols != len(x) {
		panic(fmt.Sprintf("vecmath: CSR RowDot dimension mismatch %d cols vs %d", c.Cols, len(x)))
	}
	var s float64
	for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
		s += c.Val[k] * x[c.ColIdx[k]]
	}
	return s
}

// RowAxpy implements AnyMatrix in O(nnz of row i).
func (c *CSR) RowAxpy(alpha float64, i int, dst []float64) {
	if c.Cols != len(dst) {
		panic(fmt.Sprintf("vecmath: CSR RowAxpy dimension mismatch %d cols vs %d", c.Cols, len(dst)))
	}
	for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
		dst[c.ColIdx[k]] += alpha * c.Val[k]
	}
}

// RowTo implements AnyMatrix: zero the buffer, scatter the stored entries.
func (c *CSR) RowTo(i int, dst []float64) {
	if len(dst) != c.Cols {
		panic(fmt.Sprintf("vecmath: RowTo buffer %d != %d cols", len(dst), c.Cols))
	}
	Fill(dst, 0)
	for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
		dst[c.ColIdx[k]] = c.Val[k]
	}
}

// MulVecInto implements AnyMatrix: dst = A*x in O(nnz).
func (c *CSR) MulVecInto(dst, x []float64) {
	if c.Cols != len(x) {
		panic(fmt.Sprintf("vecmath: CSR MulVec dimension mismatch %dx%d * %d", c.Rows, c.Cols, len(x)))
	}
	if len(dst) != c.Rows {
		panic(fmt.Sprintf("vecmath: CSR MulVec output length %d != %d rows", len(dst), c.Rows))
	}
	for i := 0; i < c.Rows; i++ {
		dst[i] = c.RowDot(i, x)
	}
}

// MulVecTInto implements AnyMatrix: dst = A^T*x in O(nnz), accumulating row
// contributions in row order (the same order as the dense transpose sweep).
func (c *CSR) MulVecTInto(dst, x []float64) {
	if c.Rows != len(x) {
		panic(fmt.Sprintf("vecmath: CSR MulVecT dimension mismatch %dx%d ^T * %d", c.Rows, c.Cols, len(x)))
	}
	if len(dst) != c.Cols {
		panic(fmt.Sprintf("vecmath: CSR MulVecT output length %d != %d cols", len(dst), c.Cols))
	}
	Fill(dst, 0)
	for i := 0; i < c.Rows; i++ {
		c.RowAxpy(x[i], i, dst)
	}
}

var _ AnyMatrix = (*CSR)(nil)
