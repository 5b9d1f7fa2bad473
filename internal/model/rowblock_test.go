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
// RowAxpy per row, in order.
func perRowGradient(m *Logistic, w []float64, rows []int, out []float64) {
	x, y := m.Data.X, m.Data.Y
	for _, j := range rows {
		margin := y[j] * x.RowDot(j, w)
		x.RowAxpy(-y[j]*sigmoid(-margin), j, out)
	}
}

// randomLabels draws n labels in {-1, +1}.
func randomLabels(rng *rngutil.RNG, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Copysign(1, rng.Normal())
	}
	return y
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
// reproduces the per-row loop bit for bit: every tail length 0-3 after the
// full blocks, on dense and CSR storage.
func TestSubsetGradientBitEqualPerRow(t *testing.T) {
	const rows, cols = 24, 37
	rng := rngutil.New(61)
	dm, cm := sparseDense(rng, rows, cols, 0.6)
	w := make([]float64, cols)
	for i := range w {
		w[i] = 3 * rng.Normal()
	}
	y := randomLabels(rng, rows)
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
		m := NewLogistic(&dataset.Dataset{X: x, Y: y})
		for _, list := range lists {
			got := make([]float64, cols)
			want := make([]float64, cols)
			m.SubsetGradient(w, list, got)
			perRowGradient(m, w, list, want)
			assertBitEqual(t, fmt.Sprintf("%T %d rows", x, len(list)), got, want)
		}
	}
}

// TestSubsetGradientAllocatesNothing guards the blocked kernels' by-value
// arrays: a slice of a stack array passed through an interface method
// would escape and allocate on every gradient.
func TestSubsetGradientAllocatesNothing(t *testing.T) {
	rng := rngutil.New(63)
	dm, cm := sparseDense(rng, 11, 9, 0.5)
	y := randomLabels(rng, 11)
	w, out, list := make([]float64, 9), make([]float64, 9), AllRows(11)
	for _, x := range []vecmath.AnyMatrix{dm, cm} {
		m := NewLogistic(&dataset.Dataset{X: x, Y: y})
		if a := testing.AllocsPerRun(10, func() { m.SubsetGradient(w, list, out) }); a != 0 {
			t.Fatalf("%T: SubsetGradient allocates %v times per call", x, a)
		}
	}
}
