package model

import (
	"math"
	"testing"

	"bcc/internal/dataset"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

func testLogistic(t *testing.T) *Logistic {
	t.Helper()
	rng := rngutil.New(1)
	d, err := dataset.Generate(dataset.Config{N: 60, Dim: 7, Separation: 1.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewLogistic(d)
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
	m := testLogistic(t)
	w := randW(2, m.Dim())
	rows := []int{0, 3, 7, 20, 59}
	if worst := GradCheck(m, w, rows, 1e-6); worst > 1e-4 {
		t.Fatalf("logistic gradient check failed: max err %v", worst)
	}
}

func TestLogisticSubsetAdditivity(t *testing.T) {
	// Gradient over a union of disjoint subsets equals the sum of subset
	// gradients — the algebraic fact every coding scheme relies on.
	m := testLogistic(t)
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
	m := testLogistic(t)
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
	m := testLogistic(t)
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
	d, _ := dataset.Generate(dataset.Config{N: 600, Dim: 10, Separation: 40}, rng)
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
	m := testLogistic(t)
	defer func() {
		if recover() == nil {
			t.Fatal("bad buffer did not panic")
		}
	}()
	m.SubsetGradient(make([]float64, m.Dim()), []int{0}, make([]float64, 1))
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
