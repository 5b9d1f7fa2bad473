package vecmath

import (
	"math"
	"testing"

	"bcc/internal/rngutil"
)

// randSparseDense draws a dense matrix in which each entry is nonzero with
// probability density, returning it alongside its CSR compression.
func randSparseDense(rng *rngutil.RNG, rows, cols int, density float64) (*Matrix, *CSR) {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.Normal()
		}
	}
	return m, CSRFromDense(m)
}

func TestCSRFromDenseRoundTrip(t *testing.T) {
	rng := rngutil.New(21)
	for _, density := range []float64{0, 0.01, 0.2, 1} {
		m, c := randSparseDense(rng, 17, 23, density)
		back := c.ToDense()
		if MaxAbsDiff(m.Data, back.Data) != 0 {
			t.Fatalf("density %v: dense -> CSR -> dense is not the identity", density)
		}
		nnz := 0
		for _, v := range m.Data {
			if v != 0 {
				nnz++
			}
		}
		if c.NNZ() != nnz {
			t.Fatalf("density %v: NNZ %d, dense has %d nonzeros", density, c.NNZ(), nnz)
		}
	}
}

func TestCSRAt(t *testing.T) {
	m, c := randSparseDense(rngutil.New(22), 11, 13, 0.3)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if got, want := c.At(i, j), m.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %v, dense %v", i, j, got, want)
			}
		}
	}
	if r, cc := c.Dims(); r != 11 || cc != 13 {
		t.Fatalf("Dims = (%d,%d)", r, cc)
	}
}

// TestCSRRowKernelsBitEqualDense pins the property the whole sparse compute
// plane rests on: on finite data, the O(nnz) row kernels produce bit-for-bit
// the same floats as the dense sweeps that also visit the zeros.
func TestCSRRowKernelsBitEqualDense(t *testing.T) {
	rng := rngutil.New(23)
	m, c := randSparseDense(rng, 40, 64, 0.15)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = rng.Normal()
	}
	for i := 0; i < m.Rows; i++ {
		if d, s := m.RowDot(i, x), c.RowDot(i, x); d != s {
			t.Fatalf("row %d: dense dot %v != csr dot %v", i, d, s)
		}
		dDst, sDst := Clone(x), Clone(x)
		m.RowAxpy(0.37, i, dDst)
		c.RowAxpy(0.37, i, sDst)
		if MaxAbsDiff(dDst, sDst) != 0 {
			t.Fatalf("row %d: RowAxpy diverged", i)
		}
		gather := make([]float64, m.Cols)
		c.RowTo(i, gather)
		if MaxAbsDiff(gather, m.Row(i)) != 0 {
			t.Fatalf("row %d: RowTo diverged from dense row", i)
		}
	}
}

func TestCSRMulVecBitEqualDense(t *testing.T) {
	rng := rngutil.New(24)
	m, c := randSparseDense(rng, 33, 47, 0.2)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = rng.Normal()
	}
	y := make([]float64, m.Rows)
	for i := range y {
		y[i] = rng.Normal()
	}
	dDst, sDst := make([]float64, m.Rows), make([]float64, m.Rows)
	m.MulVecInto(dDst, x)
	c.MulVecInto(sDst, x)
	if MaxAbsDiff(dDst, sDst) != 0 {
		t.Fatal("MulVecInto diverged between dense and CSR")
	}
	dT, sT := make([]float64, m.Cols), make([]float64, m.Cols)
	m.MulVecTInto(dT, y)
	c.MulVecTInto(sT, y)
	if MaxAbsDiff(dT, sT) != 0 {
		t.Fatal("MulVecTInto diverged between dense and CSR")
	}
}

func TestNewCSRValidation(t *testing.T) {
	bad := []struct {
		name        string
		rows, cols  int
		rowPtr, idx []int
		val         []float64
	}{
		{"rowptr-length", 2, 2, []int{0, 1}, []int{0}, []float64{1}},
		{"rowptr-start", 1, 2, []int{1, 1}, []int{}, []float64{}},
		{"rowptr-decreasing", 2, 2, []int{0, 1, 0}, []int{0}, []float64{1}},
		{"nnz-mismatch", 1, 2, []int{0, 2}, []int{0}, []float64{1}},
		{"col-out-of-range", 1, 2, []int{0, 1}, []int{2}, []float64{1}},
		{"col-not-increasing", 1, 3, []int{0, 2}, []int{1, 1}, []float64{1, 2}},
		{"len-mismatch", 1, 2, []int{0, 1}, []int{0, 1}, []float64{1}},
		{"negative-dim", -1, 2, []int{0}, nil, nil},
	}
	for _, tc := range bad {
		if _, err := NewCSR(tc.rows, tc.cols, tc.rowPtr, tc.idx, tc.val); err == nil {
			t.Errorf("%s: NewCSR accepted invalid storage", tc.name)
		}
	}
	good, err := NewCSR(2, 3, []int{0, 2, 3}, []int{0, 2, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	if good.At(0, 2) != 2 || good.At(1, 1) != 3 || good.At(1, 2) != 0 {
		t.Fatal("valid CSR misreads entries")
	}
}

// TestGemvTIntoMatchesNaive cross-checks the row-order transpose sweep
// against a per-column tolerance reference.
func TestGemvTIntoMatchesNaive(t *testing.T) {
	rng := rngutil.New(26)
	a := NewMatrix(9, 14)
	for i := range a.Data {
		a.Data[i] = rng.Normal()
	}
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.Normal()
	}
	got := make([]float64, 14)
	GemvTInto(got, a, x)
	for j := 0; j < 14; j++ {
		var want float64
		for i := 0; i < 9; i++ {
			want += x[i] * a.At(i, j)
		}
		if math.Abs(got[j]-want) > 1e-12 {
			t.Fatalf("GemvT[%d] = %v, want %v", j, got[j], want)
		}
	}
}
