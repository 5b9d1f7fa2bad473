package model

import (
	"math"
	"testing"

	"bcc/internal/dataset"
	"bcc/internal/linalg"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

func testLogistic(t *testing.T, lambda float64) *Logistic {
	t.Helper()
	rng := rngutil.New(1)
	d, err := dataset.Generate(dataset.Config{N: 60, Dim: 7, Separation: 1.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &Logistic{Data: d, Lambda: lambda}
}

func randW(seed uint64, dim int) []float64 {
	rng := rngutil.New(seed)
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.Normal() * 0.3
	}
	return w
}

func TestLogisticGradCheck(t *testing.T) {
	m := testLogistic(t, 0)
	w := randW(2, m.Dim())
	rows := []int{0, 3, 7, 20, 59}
	if worst := GradCheck(m, w, rows, 1e-6); worst > 1e-4 {
		t.Fatalf("logistic gradient check failed: max err %v", worst)
	}
}

func TestLogisticGradCheckRegularized(t *testing.T) {
	m := testLogistic(t, 0.5)
	w := randW(3, m.Dim())
	rows := []int{1, 2, 3}
	if worst := GradCheck(m, w, rows, 1e-6); worst > 1e-4 {
		t.Fatalf("regularized logistic gradient check failed: max err %v", worst)
	}
}

func TestLogisticSubsetAdditivity(t *testing.T) {
	// Gradient over a union of disjoint subsets equals the sum of subset
	// gradients — the algebraic fact every coding scheme relies on.
	m := testLogistic(t, 0.1)
	w := randW(4, m.Dim())
	a := []int{0, 1, 2, 10}
	b := []int{3, 4, 5}
	union := append(append([]int{}, a...), b...)
	ga := make([]float64, m.Dim())
	gb := make([]float64, m.Dim())
	gu := make([]float64, m.Dim())
	m.SubsetGradient(w, a, ga)
	m.SubsetGradient(w, b, gb)
	m.SubsetGradient(w, union, gu)
	vecmath.AddInto(ga, gb)
	if d := vecmath.MaxAbsDiff(ga, gu); d > 1e-12 {
		t.Fatalf("subset gradients not additive: %v", d)
	}
}

func TestFullGradientNormalization(t *testing.T) {
	m := testLogistic(t, 0)
	w := randW(5, m.Dim())
	full := FullGradient(m, w)
	raw := make([]float64, m.Dim())
	rows := make([]int, m.NumExamples())
	for i := range rows {
		rows[i] = i
	}
	m.SubsetGradient(w, rows, raw)
	vecmath.Scale(1/float64(m.NumExamples()), raw)
	if d := vecmath.MaxAbsDiff(full, raw); d != 0 {
		t.Fatalf("FullGradient mismatch %v", d)
	}
}

func TestLogisticLossDecreasesUnderGD(t *testing.T) {
	m := testLogistic(t, 0)
	w := make([]float64, m.Dim())
	l0 := FullLoss(m, w)
	for it := 0; it < 50; it++ {
		g := FullGradient(m, w)
		vecmath.Axpy(-0.5, g, w)
	}
	l1 := FullLoss(m, w)
	if l1 >= l0 {
		t.Fatalf("loss did not decrease: %v -> %v", l0, l1)
	}
}

func TestLogisticAccuracyImproves(t *testing.T) {
	rng := rngutil.New(10)
	// Strong separation so the classes are learnable.
	d, _ := dataset.Generate(dataset.Config{N: 600, Dim: 10, Separation: 40, StandardLabels: true}, rng)
	m := NewLogistic(d)
	w := make([]float64, m.Dim())
	base := m.Accuracy(w) // all predicted +1
	for it := 0; it < 200; it++ {
		g := FullGradient(m, w)
		vecmath.Axpy(-1.0, g, w)
	}
	trained := m.Accuracy(w)
	if trained <= base || trained < 0.7 {
		t.Fatalf("accuracy %v (baseline %v) too low after training", trained, base)
	}
}

func TestLogisticGradientBufferPanics(t *testing.T) {
	m := testLogistic(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("bad buffer did not panic")
		}
	}()
	m.SubsetGradient(make([]float64, m.Dim()), []int{0}, make([]float64, 1))
}

func TestLeastSquaresGradCheck(t *testing.T) {
	rng := rngutil.New(11)
	x := vecmath.NewMatrix(20, 5)
	for i := range x.Data {
		x.Data[i] = rng.Normal()
	}
	y := make([]float64, 20)
	for i := range y {
		y[i] = rng.Normal()
	}
	m := NewLeastSquares(x, y)
	w := randW(12, 5)
	if worst := GradCheck(m, w, []int{0, 5, 19}, 1e-6); worst > 1e-5 {
		t.Fatalf("least-squares gradient check failed: %v", worst)
	}
}

func TestLeastSquaresClosedForm(t *testing.T) {
	// GD on least squares must approach the QR solution.
	rng := rngutil.New(13)
	n, p := 40, 4
	x := vecmath.NewMatrix(n, p)
	for i := range x.Data {
		x.Data[i] = rng.Normal()
	}
	wTrue := randW(14, p)
	y := vecmath.Gemv(x, wTrue)
	m := NewLeastSquares(x, y)
	wStar, err := linalg.LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, p)
	for it := 0; it < 3000; it++ {
		g := FullGradient(m, w)
		vecmath.Axpy(-0.1, g, w)
	}
	if d := vecmath.MaxAbsDiff(w, wStar); d > 1e-6 {
		t.Fatalf("GD did not reach closed-form optimum: %v", d)
	}
}

func TestLeastSquaresShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched least squares did not panic")
		}
	}()
	NewLeastSquares(vecmath.NewMatrix(3, 2), []float64{1})
}

func TestStableLogistic(t *testing.T) {
	// Large positive and negative margins must not overflow.
	if v := logistic(800); v != 0 {
		t.Fatalf("logistic(800) = %v, want 0", v)
	}
	if v := logistic(-800); math.Abs(v-800) > 1e-9 {
		t.Fatalf("logistic(-800) = %v, want ~800", v)
	}
	if v := sigmoid(800); v != 1 {
		t.Fatalf("sigmoid(800) = %v", v)
	}
	if v := sigmoid(-800); v != 0 {
		t.Fatalf("sigmoid(-800) = %v", v)
	}
}
