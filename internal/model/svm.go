package model

import (
	"fmt"

	"bcc/internal/dataset"
	"bcc/internal/vecmath"
)

// SVM is an L2-regularized squared-hinge support vector machine:
//
//	ell_j(w) = max(0, 1 - y_j x_j^T w)^2 + (lambda/2)||w||^2 / d_total,
//
// a smooth large-margin alternative to logistic regression that exercises
// the Model interface with a different loss landscape (piecewise quadratic,
// gradient-sparse once points clear the margin). Like all models here it
// returns per-example gradient SUMS, so every coding scheme applies
// unchanged.
type SVM struct {
	Data   *dataset.Dataset
	Lambda float64
}

// NewSVM wraps a +-1-labeled dataset in an unregularized squared-hinge SVM.
func NewSVM(d *dataset.Dataset) *SVM { return &SVM{Data: d} }

// Dim returns the feature dimension.
func (s *SVM) Dim() int { return s.Data.Dim() }

// NumExamples returns the number of data points.
func (s *SVM) NumExamples() int { return s.Data.N() }

// SubsetGradient implements Model.
func (s *SVM) SubsetGradient(w []float64, rows []int, out []float64) {
	if len(out) != s.Dim() {
		panic(fmt.Sprintf("model: gradient buffer %d != dim %d", len(out), s.Dim()))
	}
	y := s.Data.Y
	rowGradient(s.Data.X, w, rows, out, func(j int, dot float64) (float64, bool) {
		margin := y[j] * dot
		if margin >= 1 {
			return 0, false // point outside the margin contributes nothing
		}
		// d/dw (1 - margin)^2 = -2 (1 - margin) y x
		return -2 * (1 - margin) * y[j], true
	})
	if s.Lambda != 0 {
		frac := s.Lambda * float64(len(rows)) / float64(s.NumExamples())
		vecmath.Axpy(frac, w, out)
	}
}

// SubsetLoss implements Model.
func (s *SVM) SubsetLoss(w []float64, rows []int) float64 {
	x := s.Data.X
	var sum float64
	for _, j := range rows {
		margin := s.Data.Y[j] * x.RowDot(j, w)
		if margin < 1 {
			d := 1 - margin
			sum += d * d
		}
	}
	if s.Lambda != 0 {
		sum += 0.5 * s.Lambda * vecmath.Dot(w, w) * float64(len(rows)) / float64(s.NumExamples())
	}
	return sum
}

// Accuracy returns the fraction of points classified correctly by sign.
func (s *SVM) Accuracy(w []float64) float64 {
	correct := 0
	for j := 0; j < s.NumExamples(); j++ {
		score := s.Data.X.RowDot(j, w)
		pred := 1.0
		if score < 0 {
			pred = -1
		}
		if pred == s.Data.Y[j] {
			correct++
		}
	}
	return float64(correct) / float64(s.NumExamples())
}

var _ Model = (*SVM)(nil)
