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

// AnyMatrix is the read-only matrix surface the model gradients and losses
// are written against. Dense (*Matrix) and sparse (*CSR) storage both
// implement it; the row kernels are the per-example hot path (one dot and
// one axpy per data point per gradient), so implementations keep them
// allocation-free.
//
// RowDot4 and RowAxpy4 are the blocked forms the model gradients use for
// four rows at a time. Each must equal the four single-row calls bit for
// bit: every row's dot is still one serial fold in column order, and every
// dst element still receives its four terms in row order. The rows and
// coefficients travel as arrays by value, so no slice escapes through the
// interface call.
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
	// RowDot4 returns RowDot(rows[k], x) for k = 0..3.
	RowDot4(rows [4]int, x []float64) [4]float64
	// RowAxpy4 applies RowAxpy(alpha[k], rows[k], dst) for k = 0..3, in
	// that order.
	RowAxpy4(alpha [4]float64, rows [4]int, dst []float64)
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

// RowDot4 implements AnyMatrix as one pass over x that feeds four
// independent dot chains, each folded in column order like Dot.
func (m *Matrix) RowDot4(rows [4]int, x []float64) [4]float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vecmath: RowDot4 dimension mismatch %d cols vs %d", m.Cols, len(x)))
	}
	n := len(x)
	r0, r1, r2, r3 := m.Row(rows[0])[:n], m.Row(rows[1])[:n], m.Row(rows[2])[:n], m.Row(rows[3])[:n]
	var s0, s1, s2, s3 float64
	for i, xv := range x {
		s0 += r0[i] * xv
		s1 += r1[i] * xv
		s2 += r2[i] * xv
		s3 += r3[i] * xv
	}
	return [4]float64{s0, s1, s2, s3}
}

// RowAxpy4 implements AnyMatrix as one pass over dst: each element is
// loaded once, receives its four row terms in row order, and is stored once.
func (m *Matrix) RowAxpy4(alpha [4]float64, rows [4]int, dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("vecmath: RowAxpy4 dimension mismatch %d cols vs %d", m.Cols, len(dst)))
	}
	n := len(dst)
	r0, r1, r2, r3 := m.Row(rows[0])[:n], m.Row(rows[1])[:n], m.Row(rows[2])[:n], m.Row(rows[3])[:n]
	a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
	for i, d := range dst {
		d += a0 * r0[i]
		d += a1 * r1[i]
		d += a2 * r2[i]
		d += a3 * r3[i]
		dst[i] = d
	}
}

var _ AnyMatrix = (*Matrix)(nil)

// ---------------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------------

// CSR is a compressed-sparse-row matrix: row i's entries are
// Val[RowPtr[i]:RowPtr[i+1]] at column indices ColIdx[RowPtr[i]:RowPtr[i+1]],
// strictly increasing within each row. The row kernels range over those two
// row subslices, so they cost O(nnz of the row) instead of O(cols);
// RowDot4 and RowAxpy4 are four single-row calls.
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
		idx, val := c.row(i)
		for k, j := range idx {
			row[j] = val[k]
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
	idx, val := c.row(i)
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		return val[k]
	}
	return 0
}

// row returns row i's column indices and values as subslices of equal
// length. The row kernels range over these locals: the compiler does not
// hoist loads through c out of a loop (and a store to dst might alias c's
// slices), so indexing c.ColIdx and c.Val in the loop reloads and
// bounds-checks both slice headers on every stored entry.
func (c *CSR) row(i int) (idx []int, val []float64) {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	idx = c.ColIdx[lo:hi]
	return idx, c.Val[lo:hi][:len(idx)]
}

// RowDot implements AnyMatrix in O(nnz of row i): the stored entries are
// folded in column order, the same order in which the dense kernel meets
// them, so on finite data the result is bit-identical to the dense dot.
func (c *CSR) RowDot(i int, x []float64) float64 {
	if c.Cols != len(x) {
		panic(fmt.Sprintf("vecmath: CSR RowDot dimension mismatch %d cols vs %d", c.Cols, len(x)))
	}
	idx, val := c.row(i)
	var s float64
	for k, j := range idx {
		s += val[k] * x[j]
	}
	return s
}

// RowAxpy implements AnyMatrix in O(nnz of row i).
func (c *CSR) RowAxpy(alpha float64, i int, dst []float64) {
	if c.Cols != len(dst) {
		panic(fmt.Sprintf("vecmath: CSR RowAxpy dimension mismatch %d cols vs %d", c.Cols, len(dst)))
	}
	idx, val := c.row(i)
	for k, j := range idx {
		dst[j] += alpha * val[k]
	}
}

// RowDot4 implements AnyMatrix as four RowDot calls.
func (c *CSR) RowDot4(rows [4]int, x []float64) [4]float64 {
	return [4]float64{c.RowDot(rows[0], x), c.RowDot(rows[1], x), c.RowDot(rows[2], x), c.RowDot(rows[3], x)}
}

// RowAxpy4 implements AnyMatrix as four RowAxpy calls, one row after the
// other: walking the rows in lockstep would reorder the adds to any column
// two of them share.
func (c *CSR) RowAxpy4(alpha [4]float64, rows [4]int, dst []float64) {
	for k, i := range rows {
		c.RowAxpy(alpha[k], i, dst)
	}
}

var _ AnyMatrix = (*CSR)(nil)
