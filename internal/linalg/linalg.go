// Package linalg implements the small dense linear-algebra routines needed
// to construct and decode the coded gradient schemes: LU factorization with
// partial pivoting, Householder QR, least-squares solves,
// and helpers for building code matrices.
//
// The matrices involved are tiny by HPC standards (n x n with n = number of
// workers, typically <= a few hundred), so clarity and numerical robustness
// are preferred over blocking/tiling.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"bcc/internal/vecmath"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// SolveLU solves A x = b via LU decomposition with partial pivoting.
// A is n x n (row-major), b has length n. A and b are not modified.
func SolveLU(a *vecmath.Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: SolveLU needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: SolveLU rhs length %d != %d", len(b), n)
	}
	lu := a.Clone()
	x := vecmath.Clone(b)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below the diagonal.
		p, maxv := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 || math.IsNaN(maxv) {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			x[k], x[p] = x[p], x[k]
			piv[k], piv[p] = piv[p], piv[k]
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) * inv
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
			x[i] -= f * x[k]
		}
	}
	// Back substitution on U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := lu.Row(i)
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		d := ri[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// QR holds a Householder QR factorization of an m x n matrix with m >= n.
type QR struct {
	m, n int
	// qr stores R in the upper triangle and the Householder vectors below
	// the diagonal (LAPACK-style compact form).
	qr   *vecmath.Matrix
	rdia []float64 // diagonal of R (kept separately for sign bookkeeping)
}

// NewQR factors a (m x n, m >= n) by Householder reflections. a is copied.
func NewQR(a *vecmath.Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QR needs rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k below (and including) the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rdia[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdia[k] = -nrm
	}
	return &QR{m: m, n: n, qr: qr, rdia: rdia}, nil
}

// FullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (q *QR) FullRank() bool {
	var maxd float64
	for _, d := range q.rdia {
		if a := math.Abs(d); a > maxd {
			maxd = a
		}
	}
	if maxd == 0 {
		return false
	}
	tol := maxd * 1e-12 * float64(q.m)
	for _, d := range q.rdia {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing ||A x - b||_2.
// b has length m; the result has length n.
func (q *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != q.m {
		return nil, fmt.Errorf("linalg: QR solve rhs length %d != %d", len(b), q.m)
	}
	if !q.FullRank() {
		return nil, ErrSingular
	}
	y := vecmath.Clone(b)
	// Apply Q^T to b.
	for k := 0; k < q.n; k++ {
		if q.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < q.m; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s = -s / q.qr.At(k, k)
		for i := k; i < q.m; i++ {
			y[i] += s * q.qr.At(i, k)
		}
	}
	// Back-substitute R x = y[:n].
	x := make([]float64, q.n)
	for i := q.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < q.n; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		x[i] = s / q.rdia[i]
	}
	return x, nil
}

// LeastSquares minimizes ||A x - b||_2 by Householder QR. A is m x n with
// m >= n and full column rank.
func LeastSquares(a *vecmath.Matrix, b []float64) ([]float64, error) {
	q, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return q.Solve(b)
}

// MinNormRowSolve finds y minimizing ||y||_2 subject to y^T A = c^T, i.e. a
// (minimum-norm) solution of A^T y = c. A is k x n with k >= n and full
// column rank is NOT required of A^T; we solve the consistent system via the
// normal equations of the transpose using QR on A^T's transpose:
// A^T y = c with A^T (n x k) wide. The minimum-norm solution is
// y = A (A^T A)^{-1} c, computed stably through QR of A.
func MinNormRowSolve(a *vecmath.Matrix, c []float64) ([]float64, error) {
	// a: k x n, want y (len k) with a^T y = c (len n).
	if len(c) != a.Cols {
		return nil, fmt.Errorf("linalg: MinNormRowSolve rhs length %d != %d", len(c), a.Cols)
	}
	q, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	if !q.FullRank() {
		return nil, ErrSingular
	}
	// Solve R^T z = c (forward substitution), then y = Q [z; 0].
	n := a.Cols
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		s := c[i]
		for j := 0; j < i; j++ {
			s -= q.qr.At(j, i) * z[j] // R[j][i], j<i
		}
		z[i] = s / q.rdia[i]
	}
	// y = Q * [z; 0]: apply reflectors in reverse order to the padded vector.
	y := make([]float64, a.Rows)
	copy(y, z)
	for k := n - 1; k >= 0; k-- {
		if q.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < a.Rows; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s = -s / q.qr.At(k, k)
		for i := k; i < a.Rows; i++ {
			y[i] += s * q.qr.At(i, k)
		}
	}
	return y, nil
}

// Residual returns max_i |(A x)_i - b_i| as a quick quality check.
func Residual(a *vecmath.Matrix, x, b []float64) float64 {
	ax := vecmath.Gemv(a, x)
	return vecmath.MaxAbsDiff(ax, b)
}
