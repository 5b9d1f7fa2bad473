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
	}
}

// mulVec returns A*x, one RowDot per row.
func mulVec(a AnyMatrix, x []float64) []float64 {
	rows, _ := a.Dims()
	y := make([]float64, rows)
	for i := range y {
		y[i] = a.RowDot(i, x)
	}
	return y
}

// mulVecT returns A^T*x, accumulating the rows in row order.
func mulVecT(a AnyMatrix, x []float64) []float64 {
	_, cols := a.Dims()
	y := make([]float64, cols)
	for i, xi := range x {
		a.RowAxpy(xi, i, y)
	}
	return y
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
	if MaxAbsDiff(mulVec(m, x), mulVec(c, x)) != 0 {
		t.Fatal("A*x diverged between dense and CSR")
	}
	if MaxAbsDiff(mulVecT(m, y), mulVecT(c, y)) != 0 {
		t.Fatal("A^T*y diverged between dense and CSR")
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

// TestRowBlockKernelsBitEqualSingle pins the promise of the blocked row
// kernels: RowDot4 and RowAxpy4 return bit for bit what four single-row
// calls return, on dense and CSR storage, for every short row length and a
// long one, with repeated rows in one block and a dst seeded with -0.
func TestRowBlockKernelsBitEqualSingle(t *testing.T) {
	rng := rngutil.New(27)
	negZero := math.Copysign(0, -1)
	blocks := [][4]int{{0, 1, 2, 3}, {5, 2, 4, 1}, {3, 3, 3, 3}, {1, 4, 1, 4}}
	for _, cols := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1024} {
		m, c := randSparseDense(rng, 6, cols, 0.7)
		x := randVec(rng, cols)
		for _, mat := range []AnyMatrix{m, c} {
			for _, rows := range blocks {
				got := mat.RowDot4(rows, x)
				for k, i := range rows {
					if want := mat.RowDot(i, x); math.Float64bits(got[k]) != math.Float64bits(want) {
						t.Fatalf("%T cols %d rows %v: RowDot4[%d] = %v, RowDot = %v", mat, cols, rows, k, got[k], want)
					}
				}
				alpha := [4]float64{rng.Normal(), 0, negZero, rng.Normal()}
				negZeros := make([]float64, cols)
				Fill(negZeros, negZero)
				for _, seed := range [][]float64{negZeros, randVec(rng, cols)} {
					gotDst, wantDst := Clone(seed), Clone(seed)
					mat.RowAxpy4(alpha, rows, gotDst)
					for k, i := range rows {
						mat.RowAxpy(alpha[k], i, wantDst)
					}
					for j := range gotDst {
						if math.Float64bits(gotDst[j]) != math.Float64bits(wantDst[j]) {
							t.Fatalf("%T cols %d rows %v: RowAxpy4 dst[%d] = %v, RowAxpy = %v", mat, cols, rows, j, gotDst[j], wantDst[j])
						}
					}
				}
			}
		}
	}
}

// TestCSRRowKernelsEdgeCasesBitEqualDense checks every CSR row kernel,
// single and blocked, against the dense single-row kernels, which share no
// loop with them: empty rows, a one-entry row at the last column ahead of
// which a full row is folded, a block of four empty rows and a block that
// repeats one row.
func TestCSRRowKernelsEdgeCasesBitEqualDense(t *testing.T) {
	rng := rngutil.New(29)
	blocks := [][4]int{{0, 1, 2, 3}, {2, 0, 1, 1}, {2, 1, 2, 1}, {0, 0, 0, 0}, {2, 2, 2, 2}}
	for _, cols := range []int{1, 2, 3, 17, 64} {
		m := NewMatrix(4, cols) // row 0 stays empty
		m.Set(1, cols-1, rng.Normal())
		copy(m.Row(2), randVec(rng, cols))
		for j := 0; j < cols; j += 2 {
			m.Set(3, j, rng.Normal())
		}
		c := CSRFromDense(m)
		x := randVec(rng, cols)
		same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
		for i := 0; i < m.Rows; i++ {
			if got, want := c.RowDot(i, x), m.RowDot(i, x); !same(got, want) {
				t.Fatalf("cols %d row %d: CSR RowDot %v, dense %v", cols, i, got, want)
			}
			alpha := rng.Normal()
			got := randVec(rng, cols)
			want := Clone(got)
			c.RowAxpy(alpha, i, got)
			m.RowAxpy(alpha, i, want)
			for j := range got {
				if !same(got[j], want[j]) {
					t.Fatalf("cols %d row %d: CSR RowAxpy dst[%d] = %v, dense %v", cols, i, j, got[j], want[j])
				}
			}
		}
		for _, rows := range blocks {
			dots := c.RowDot4(rows, x)
			for k, i := range rows {
				if want := m.RowDot(i, x); !same(dots[k], want) {
					t.Fatalf("cols %d rows %v: CSR RowDot4[%d] = %v, dense RowDot %v", cols, rows, k, dots[k], want)
				}
			}
			alpha := [4]float64{rng.Normal(), rng.Normal(), rng.Normal(), rng.Normal()}
			got := randVec(rng, cols)
			want := Clone(got)
			c.RowAxpy4(alpha, rows, got)
			for k, i := range rows {
				m.RowAxpy(alpha[k], i, want)
			}
			for j := range got {
				if !same(got[j], want[j]) {
					t.Fatalf("cols %d rows %v: CSR RowAxpy4 dst[%d] = %v, dense RowAxpy %v", cols, rows, j, got[j], want[j])
				}
			}
		}
	}
}

func TestRowBlockKernelsPanicOnMismatch(t *testing.T) {
	m, c := randSparseDense(rngutil.New(28), 4, 5, 0.5)
	for _, mat := range []AnyMatrix{m, c} {
		for name, call := range map[string]func(){
			"RowDot4":  func() { mat.RowDot4([4]int{0, 1, 2, 3}, make([]float64, 4)) },
			"RowAxpy4": func() { mat.RowAxpy4([4]float64{}, [4]int{0, 1, 2, 3}, make([]float64, 6)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%T %s with a wrong length did not panic", mat, name)
					}
				}()
				call()
			}()
		}
	}
}
