// Package model defines the learning tasks whose gradients are computed
// distributedly: L2-regularized logistic regression (the paper's task) and
// linear least squares (a second workload exercising the same machinery).
//
// Conventions. A Model computes, for a set of data rows G, the SUM of
// per-example gradients sum_{j in G} g_j(w) — the quantity a worker ships.
// The master divides the aggregated sum by the dataset size to obtain the
// paper's gradient (1/m) sum_j g_j (eq. 1). Losses follow the same
// convention (sums, normalized by the caller).
//
// All models evaluate against vecmath.AnyMatrix row kernels, so a worker's
// per-example gradient costs O(nnz of the row) on CSR data and O(p) on
// dense — with bit-identical results for a CSR matrix holding exactly the
// dense matrix's nonzeros. SubsetGradient walks its rows in blocks of four
// through the blocked row kernels (rowGradient), which changes the memory
// traffic but not one bit of the result.
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

// rowGradient accumulates sum_{j in rows} coeff_j x_j into out, where coeff
// maps a row and its dot x_j^T w to the row's coefficient, or reports false
// for a row that contributes nothing. Full blocks of four rows share one
// RowDot4 pass over w; contributing rows queue in order and share one
// RowAxpy4 pass over out per four. Leftover rows at either stage take the
// single-row kernels, so out equals the per-row loop bit for bit. A
// skipped row never enters RowAxpy4 with a zero coefficient: out += 0*x is
// not a no-op when out is -0 or x is infinite.
func rowGradient(x vecmath.AnyMatrix, w []float64, rows []int, out []float64, coeff func(j int, dot float64) (float64, bool)) {
	var (
		queue [4]int
		alpha [4]float64
		n     int
	)
	add := func(j int, dot float64) {
		c, ok := coeff(j, dot)
		if !ok {
			return
		}
		queue[n], alpha[n] = j, c
		if n++; n == 4 {
			x.RowAxpy4(alpha, queue, out)
			n = 0
		}
	}
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		block := [4]int{rows[i], rows[i+1], rows[i+2], rows[i+3]}
		dots := x.RowDot4(block, w)
		for k, j := range block {
			add(j, dots[k])
		}
	}
	for _, j := range rows[i:] {
		add(j, x.RowDot(j, w))
	}
	for k := range n {
		x.RowAxpy(alpha[k], queue[k], out)
	}
}

// ---------------------------------------------------------------------------
// Logistic regression
// ---------------------------------------------------------------------------

// Logistic is binary logistic regression with labels in {-1, +1}:
// ell_j(w) = log(1 + exp(-y_j x_j^T w)) + (lambda/2) ||w||^2 / d_total.
// The regularizer is spread uniformly over examples so that summing
// per-example gradients reproduces the regularized full gradient.
type Logistic struct {
	Data   *dataset.Dataset
	Lambda float64 // L2 regularization strength (0 = none, as in the paper)
}

// NewLogistic wraps a dataset in an unregularized logistic model.
func NewLogistic(d *dataset.Dataset) *Logistic { return &Logistic{Data: d} }

// Dim returns the feature dimension.
func (l *Logistic) Dim() int { return l.Data.Dim() }

// NumExamples returns the number of data points.
func (l *Logistic) NumExamples() int { return l.Data.N() }

// SubsetGradient implements Model.
func (l *Logistic) SubsetGradient(w []float64, rows []int, out []float64) {
	if len(out) != l.Dim() {
		panic(fmt.Sprintf("model: gradient buffer %d != dim %d", len(out), l.Dim()))
	}
	y := l.Data.Y
	rowGradient(l.Data.X, w, rows, out, func(j int, dot float64) (float64, bool) {
		margin := y[j] * dot
		// d/dw log(1+exp(-margin)) = -y * sigma(-margin) * x
		return -y[j] * sigmoid(-margin), true
	})
	if l.Lambda != 0 {
		frac := l.Lambda * float64(len(rows)) / float64(l.NumExamples())
		vecmath.Axpy(frac, w, out)
	}
}

// SubsetLoss implements Model.
func (l *Logistic) SubsetLoss(w []float64, rows []int) float64 {
	x := l.Data.X
	var s float64
	for _, j := range rows {
		margin := l.Data.Y[j] * x.RowDot(j, w)
		s += logistic(margin)
	}
	if l.Lambda != 0 {
		n2 := vecmath.Dot(w, w)
		s += 0.5 * l.Lambda * n2 * float64(len(rows)) / float64(l.NumExamples())
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
// Linear least squares
// ---------------------------------------------------------------------------

// LeastSquares is the quadratic model ell_j(w) = 0.5 (x_j^T w - y_j)^2.
// Unlike Logistic it permits closed-form optimum checks in tests. X may be
// dense or CSR; gradients cost O(nnz) on sparse data.
type LeastSquares struct {
	X vecmath.AnyMatrix
	Y []float64
}

// NewLeastSquares constructs a least-squares model; y may hold arbitrary
// real targets. It panics if dimensions disagree.
func NewLeastSquares(x vecmath.AnyMatrix, y []float64) *LeastSquares {
	rows, _ := x.Dims()
	if rows != len(y) {
		panic(fmt.Sprintf("model: least squares with %d rows but %d targets", rows, len(y)))
	}
	return &LeastSquares{X: x, Y: y}
}

// Dim returns the feature dimension.
func (m *LeastSquares) Dim() int { _, cols := m.X.Dims(); return cols }

// NumExamples returns the number of data points.
func (m *LeastSquares) NumExamples() int { rows, _ := m.X.Dims(); return rows }

// SubsetGradient implements Model.
func (m *LeastSquares) SubsetGradient(w []float64, rows []int, out []float64) {
	if len(out) != m.Dim() {
		panic(fmt.Sprintf("model: gradient buffer %d != dim %d", len(out), m.Dim()))
	}
	rowGradient(m.X, w, rows, out, func(j int, dot float64) (float64, bool) {
		return dot - m.Y[j], true
	})
}

// SubsetLoss implements Model.
func (m *LeastSquares) SubsetLoss(w []float64, rows []int) float64 {
	var s float64
	for _, j := range rows {
		resid := m.X.RowDot(j, w) - m.Y[j]
		s += 0.5 * resid * resid
	}
	return s
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checking
// ---------------------------------------------------------------------------

// GradCheck compares SubsetGradient against central finite differences of
// SubsetLoss at w over the given rows. It returns the maximum absolute
// component error. Used by tests for every model.
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
