package model

import (
	"testing"

	"bcc/internal/dataset"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

func testSVM(t *testing.T, lambda float64) *SVM {
	t.Helper()
	rng := rngutil.New(20)
	d, err := dataset.Generate(dataset.Config{N: 80, Dim: 6, Separation: 1.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &SVM{Data: d, Lambda: lambda}
}

func TestSVMGradCheck(t *testing.T) {
	m := testSVM(t, 0)
	w := randW(21, m.Dim())
	rows := []int{0, 7, 15, 40, 79}
	// The squared hinge is C1 (continuous first derivative); central
	// differences are accurate away from the measure-zero kink set.
	if worst := GradCheck(m, w, rows, 1e-6); worst > 1e-4 {
		t.Fatalf("SVM gradient check failed: %v", worst)
	}
}

func TestSVMGradCheckRegularized(t *testing.T) {
	m := testSVM(t, 0.3)
	w := randW(22, m.Dim())
	if worst := GradCheck(m, w, []int{1, 2, 3}, 1e-6); worst > 1e-4 {
		t.Fatalf("regularized SVM gradient check failed: %v", worst)
	}
}

func TestSVMSubsetAdditivity(t *testing.T) {
	m := testSVM(t, 0.1)
	w := randW(23, m.Dim())
	a := []int{0, 1, 2}
	b := []int{3, 4}
	union := append(append([]int{}, a...), b...)
	ga := make([]float64, m.Dim())
	gb := make([]float64, m.Dim())
	gu := make([]float64, m.Dim())
	m.SubsetGradient(w, a, ga)
	m.SubsetGradient(w, b, gb)
	m.SubsetGradient(w, union, gu)
	vecmath.AddInto(ga, gb)
	if d := vecmath.MaxAbsDiff(ga, gu); d > 1e-12 {
		t.Fatalf("SVM subset gradients not additive: %v", d)
	}
}

func TestSVMMarginPointsContributeNothing(t *testing.T) {
	// With a huge weight vector aligned to labels, every margin exceeds 1
	// and the unregularized gradient must vanish.
	rng := rngutil.New(24)
	d, _ := dataset.Generate(dataset.Config{N: 50, Dim: 8, Separation: 40, StandardLabels: true}, rng)
	m := NewSVM(d)
	// Train roughly toward separation first.
	w := make([]float64, m.Dim())
	for it := 0; it < 300; it++ {
		g := FullGradient(m, w)
		vecmath.Axpy(-0.2, g, w)
	}
	vecmath.Scale(50, w) // blow up the margin
	g := make([]float64, m.Dim())
	rows := make([]int, m.NumExamples())
	for i := range rows {
		rows[i] = i
	}
	m.SubsetGradient(w, rows, g)
	if vecmath.NormInf(g) > 1e-9 {
		// Some points may genuinely be misclassified; only fail if loss is
		// zero yet gradient is not.
		if m.SubsetLoss(w, rows) == 0 {
			t.Fatalf("zero loss but nonzero gradient %v", vecmath.NormInf(g))
		}
	}
}

func TestSVMTrainsToHighAccuracy(t *testing.T) {
	rng := rngutil.New(25)
	d, _ := dataset.Generate(dataset.Config{N: 400, Dim: 10, Separation: 40, StandardLabels: true}, rng)
	m := NewSVM(d)
	w := make([]float64, m.Dim())
	l0 := FullLoss(m, w)
	for it := 0; it < 300; it++ {
		g := FullGradient(m, w)
		vecmath.Axpy(-0.2, g, w)
	}
	if l1 := FullLoss(m, w); l1 >= l0 {
		t.Fatalf("SVM loss did not decrease: %v -> %v", l0, l1)
	}
	if acc := m.Accuracy(w); acc < 0.8 {
		t.Fatalf("SVM accuracy %v too low", acc)
	}
}
