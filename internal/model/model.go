// Package model defines the learning tasks whose gradients are computed
// distributedly: logistic regression, the paper's task.
//
// Conventions. A Model computes, for a set of data rows G, the SUM of
// per-example gradients sum_{j in G} g_j(w) — the quantity a worker ships.
// The master divides the aggregated sum by the dataset size to obtain the
// paper's gradient (1/m) sum_j g_j (eq. 1). Losses follow the same
// convention (sums, normalized by the caller).
//
// The model evaluates against vecmath.AnyMatrix row kernels, so a worker's
// per-example gradient costs O(nnz of the row) on CSR data and O(p) on
// dense — with bit-identical results for a CSR matrix holding exactly the
// dense matrix's nonzeros. SubsetGradient walks its rows in blocks of four
// through the blocked row kernels, which changes the memory traffic but not
// one bit of the result.
package model

import (
	"fmt"
	"math"

	"bcc/internal/dataset"
	"bcc/internal/vecmath"
)

// Model is a differentiable empirical-risk model over a fixed dataset.
type Model interface {
	// Dim returns the parameter dimension.
	Dim() int
	// NumExamples returns the number of data points backing the model.
	NumExamples() int
	// SubsetGradient accumulates sum_{j in rows} grad ell_j(w) into out,
	// which must be zeroed by the caller, have length Dim() and not
	// overlap w.
	SubsetGradient(w []float64, rows []int, out []float64)
	// SubsetLoss returns sum_{j in rows} ell_j(w).
	SubsetLoss(w []float64, rows []int) float64
}

// FullGradient evaluates the normalized full gradient (1/d) sum_j g_j(w).
func FullGradient(m Model, w []float64) []float64 {
	out := make([]float64, m.Dim())
	FullGradientInto(m, w, out, nil)
	return out
}

// FullGradientInto evaluates the normalized full gradient (1/d) sum_j g_j(w)
// into out (length Dim(), fully overwritten). rows is optional scratch: pass
// AllRows(m.NumExamples()) — typically held across calls — to avoid
// reallocating the row list per evaluation; nil allocates one internally.
func FullGradientInto(m Model, w, out []float64, rows []int) {
	if rows == nil {
		rows = AllRows(m.NumExamples())
	}
	vecmath.Fill(out, 0)
	m.SubsetGradient(w, rows, out)
	vecmath.Scale(1/float64(m.NumExamples()), out)
}

// FullLoss evaluates the normalized empirical risk (1/d) sum_j ell_j(w).
func FullLoss(m Model, w []float64) float64 {
	rows := AllRows(m.NumExamples())
	return m.SubsetLoss(w, rows) / float64(m.NumExamples())
}

// AllRows returns the identity row list [0, 1, ..., n). Callers evaluating
// full gradients or losses in a loop hold one AllRows slice as scratch for
// the *Into entry points.
func AllRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// ---------------------------------------------------------------------------
// Logistic regression
// ---------------------------------------------------------------------------

// Logistic is binary logistic regression with labels in {-1, +1}:
// ell_j(w) = log(1 + exp(-y_j x_j^T w)), unregularized as in the paper.
type Logistic struct {
	Data *dataset.Dataset
}

// NewLogistic wraps a dataset in a logistic model.
func NewLogistic(d *dataset.Dataset) *Logistic { return &Logistic{Data: d} }

// Dim returns the feature dimension.
func (l *Logistic) Dim() int { return l.Data.Dim() }

// NumExamples returns the number of data points.
func (l *Logistic) NumExamples() int { return l.Data.N() }

// SubsetGradient implements Model. Full blocks of four rows share one
// RowDot4 pass over w and one RowAxpy4 pass over out; the tail rows take
// the single-row kernels, so out equals the per-row loop bit for bit.
func (l *Logistic) SubsetGradient(w []float64, rows []int, out []float64) {
	if len(out) != l.Dim() {
		panic(fmt.Sprintf("model: gradient buffer %d != dim %d", len(out), l.Dim()))
	}
	x, y := l.Data.X, l.Data.Y
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		block := [4]int{rows[i], rows[i+1], rows[i+2], rows[i+3]}
		dots := x.RowDot4(block, w)
		var alpha [4]float64
		for k, j := range block {
			alpha[k] = gradCoeff(y[j], dots[k])
		}
		x.RowAxpy4(alpha, block, out)
	}
	for _, j := range rows[i:] {
		x.RowAxpy(gradCoeff(y[j], x.RowDot(j, w)), j, out)
	}
}

// gradCoeff is the coefficient of x_j in the gradient of ell_j, given the
// label y_j and the dot x_j^T w:
// d/dw log(1+exp(-margin)) = -y * sigma(-margin) * x, margin = y x^T w.
func gradCoeff(y, dot float64) float64 {
	return -y * sigmoid(-(y * dot))
}

// SubsetLoss implements Model.
func (l *Logistic) SubsetLoss(w []float64, rows []int) float64 {
	x := l.Data.X
	var s float64
	for _, j := range rows {
		margin := l.Data.Y[j] * x.RowDot(j, w)
		s += logistic(margin)
	}
	return s
}

// Accuracy returns the fraction of points whose sign(x^T w) matches the
// label.
func (l *Logistic) Accuracy(w []float64) float64 {
	correct := 0
	for j := 0; j < l.NumExamples(); j++ {
		score := l.Data.X.RowDot(j, w)
		pred := 1.0
		if score < 0 {
			pred = -1
		}
		if pred == l.Data.Y[j] {
			correct++
		}
	}
	return float64(correct) / float64(l.NumExamples())
}

// logistic returns log(1 + exp(-m)) computed stably.
func logistic(m float64) float64 {
	if m > 0 {
		return math.Log1p(math.Exp(-m))
	}
	return -m + math.Log1p(math.Exp(m))
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checking
// ---------------------------------------------------------------------------

// GradCheck compares SubsetGradient against central finite differences of
// SubsetLoss at w over the given rows. It returns the maximum absolute
// component error. Used by the model tests.
func GradCheck(m Model, w []float64, rows []int, h float64) float64 {
	analytic := make([]float64, m.Dim())
	m.SubsetGradient(w, rows, analytic)
	wp := vecmath.Clone(w)
	var worst float64
	for i := range w {
		orig := wp[i]
		wp[i] = orig + h
		lp := m.SubsetLoss(wp, rows)
		wp[i] = orig - h
		lm := m.SubsetLoss(wp, rows)
		wp[i] = orig
		numeric := (lp - lm) / (2 * h)
		if d := math.Abs(numeric - analytic[i]); d > worst {
			worst = d
		}
	}
	return worst
}
