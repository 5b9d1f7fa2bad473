package model

import (
	"fmt"
	"math"
	"testing"

	"bcc/internal/dataset"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// perRowGradient is the reference SubsetGradient: one RowDot and one
// RowAxpy per row, in order, skipping SVM rows outside the margin, then
// the Lambda term over all of rows.
func perRowGradient(m Model, w []float64, rows []int, out []float64) {
	var lambda float64
	switch m := m.(type) {
	case *Logistic:
		x, y := m.Data.X, m.Data.Y
		for _, j := range rows {
			margin := y[j] * x.RowDot(j, w)
			x.RowAxpy(-y[j]*sigmoid(-margin), j, out)
		}
		lambda = m.Lambda
	case *SVM:
		x, y := m.Data.X, m.Data.Y
		for _, j := range rows {
			margin := y[j] * x.RowDot(j, w)
			if margin < 1 {
				x.RowAxpy(-2*(1-margin)*y[j], j, out)
			}
		}
		lambda = m.Lambda
	case *LeastSquares:
		for _, j := range rows {
			m.X.RowAxpy(m.X.RowDot(j, w)-m.Y[j], j, out)
		}
	default:
		panic("perRowGradient: unknown model")
	}
	if lambda != 0 {
		vecmath.Axpy(lambda*float64(len(rows))/float64(m.NumExamples()), w, out)
	}
}

// blockModels wraps x and y in each model, with Lambda != 0 where the
// model has one.
func blockModels(x vecmath.AnyMatrix, y []float64) map[string]Model {
	d := &dataset.Dataset{X: x, Y: y}
	return map[string]Model{
		"logistic":     &Logistic{Data: d, Lambda: 0.3},
		"svm":          &SVM{Data: d, Lambda: 0.3},
		"leastsquares": NewLeastSquares(x, y),
	}
}

// assertBitEqual fails unless got and want hold the same float64 bits.
func assertBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: out[%d] = %v, per-row loop %v", what, i, got[i], want[i])
		}
	}
}

// TestSubsetGradientBitEqualPerRow pins that the row-blocked SubsetGradient
// of every model reproduces the per-row loop bit for bit: every tail
// length 0-3 after the full blocks, dense and CSR storage, Lambda != 0, and
// SVM rows outside the margin in the middle of a block.
func TestSubsetGradientBitEqualPerRow(t *testing.T) {
	const rows, cols = 24, 37
	rng := rngutil.New(61)
	dm, cm := sparseDense(rng, rows, cols, 0.6)
	w := make([]float64, cols)
	for i := range w {
		w[i] = 3 * rng.Normal()
	}
	// Rows at block positions 1 and 2 sit on the correct side of the
	// margin, the rest on the wrong side, so the SVM skips rows mid-block.
	y := make([]float64, rows)
	for j := range y {
		dot := dm.RowDot(j, w)
		y[j] = math.Copysign(1, dot)
		if j%4 == 0 || j%4 == 3 {
			y[j] = -y[j]
		} else if math.Abs(dot) < 1 {
			t.Fatalf("setup: row %d has |x^T w| = %v < 1, so the SVM would not skip it", j, dot)
		}
	}
	lists := [][]int{}
	for n := 0; n <= 9; n++ {
		lists = append(lists, AllRows(n))
	}
	mixed := make([]int, 23) // shuffled, with repeats
	for i := range mixed {
		mixed[i] = rng.Intn(rows)
	}
	lists = append(lists, AllRows(rows), mixed)
	for _, x := range []vecmath.AnyMatrix{dm, cm} {
		for name, m := range blockModels(x, y) {
			for _, list := range lists {
				got := make([]float64, cols)
				want := make([]float64, cols)
				m.SubsetGradient(w, list, got)
				perRowGradient(m, w, list, want)
				assertBitEqual(t, fmt.Sprintf("%s %T %d rows", name, x, len(list)), got, want)
			}
		}
	}
}

// TestSVMSkippedRowTouchesNothing pins the zero-coefficient trap: a row
// outside the margin must not reach the accumulator at all, not even as
// out += 0*x, which turns -0 into +0 and an infinite entry into NaN.
func TestSVMSkippedRowTouchesNothing(t *testing.T) {
	const rows, cols = 8, 6
	rng := rngutil.New(62)
	dm := vecmath.NewMatrix(rows, cols)
	y := make([]float64, rows)
	for j := 0; j < rows; j++ {
		for c := 0; c < cols-1; c++ {
			dm.Set(j, c, rng.Normal())
		}
		y[j] = 1
	}
	// Row 1 alone stores the last column, as +Inf: its margin is +Inf.
	dm.Set(1, cols-1, math.Inf(1))
	w := make([]float64, cols)
	for i := range w {
		w[i] = 0.1 * rng.Normal()
	}
	w[cols-1] = 1
	for _, x := range []vecmath.AnyMatrix{dm, vecmath.CSRFromDense(dm)} {
		m := &SVM{Data: &dataset.Dataset{X: x, Y: y}}
		got := make([]float64, cols)
		want := make([]float64, cols)
		vecmath.Fill(got, math.Copysign(0, -1))
		vecmath.Fill(want, math.Copysign(0, -1))
		m.SubsetGradient(w, AllRows(rows), got)
		perRowGradient(m, w, AllRows(rows), want)
		assertBitEqual(t, "svm skipped row", got, want)
		if math.IsNaN(got[cols-1]) {
			t.Fatal("the skipped +Inf row reached the accumulator")
		}
	}
}

// TestSubsetGradientAllocatesNothing guards the blocked kernels' by-value
// arrays: a slice of a stack array passed through an interface method
// would escape and allocate on every gradient.
func TestSubsetGradientAllocatesNothing(t *testing.T) {
	rng := rngutil.New(63)
	dm, cm := sparseDense(rng, 11, 9, 0.5)
	y := make([]float64, 11)
	for i := range y {
		y[i] = math.Copysign(1, rng.Normal())
	}
	w, out, list := make([]float64, 9), make([]float64, 9), AllRows(11)
	for _, x := range []vecmath.AnyMatrix{dm, cm} {
		for name, m := range blockModels(x, y) {
			if a := testing.AllocsPerRun(10, func() { m.SubsetGradient(w, list, out) }); a != 0 {
				t.Fatalf("%s %T: SubsetGradient allocates %v times per call", name, x, a)
			}
		}
	}
}
