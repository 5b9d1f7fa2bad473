// Package dataset generates the synthetic classification data used in the
// paper's EC2 experiments (§III-C "Data Generation") and provides the
// unit/grouping machinery that maps data points onto the m "examples" the
// coding schemes operate on.
//
// Paper model: true weights w* with coordinates uniform on {-1, +1};
// features x ~ 0.5 N(mu1, I) + 0.5 N(mu2, I) with mu1 = (1.5/p) w* and
// mu2 = (-1.5/p) w*; labels y in {-1, +1} drawn Bernoulli with
// kappa = 1 / (exp(x^T w*) + 1).
//
// When m > n (more examples than workers) the paper groups points into
// "super examples"; the EC2 runs use m batches of 100 points each. Units
// here play that role: a Dataset of d points is partitioned into m
// contiguous units, and the coding layer treats each unit as one example.
package dataset

import (
	"fmt"
	"math"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// Dataset is a fixed design matrix with +-1 labels and (for synthetic data)
// the generating weight vector. The feature matrix is an AnyMatrix: dense
// row-major storage for the paper's Gaussian-mixture generator, CSR for the
// sparse generator (Config.Density) and LIBSVM-loaded data — the gradient
// kernels cost O(nnz) on the latter.
type Dataset struct {
	X     vecmath.AnyMatrix // d x p feature matrix (dense or CSR)
	Y     []float64         // labels in {-1, +1}, length d
	WStar []float64         // generating weights (nil for non-synthetic data)
}

// N returns the number of data points.
func (d *Dataset) N() int { rows, _ := d.X.Dims(); return rows }

// Dim returns the feature dimension p.
func (d *Dataset) Dim() int { _, cols := d.X.Dims(); return cols }

// NNZ returns the number of stored feature entries (rows*cols for dense
// datasets).
func (d *Dataset) NNZ() int { return d.X.NNZ() }

// Sparse reports whether the feature matrix is CSR-compressed, returning it
// if so.
func (d *Dataset) Sparse() (*vecmath.CSR, bool) {
	c, ok := d.X.(*vecmath.CSR)
	return c, ok
}

// Config parameterizes the synthetic generator.
type Config struct {
	N   int // number of data points (d in the paper's notation)
	Dim int // feature dimension p (paper uses 8000)
	// Separation scales the class means: mu = +-(Separation/Dim) * w*.
	// 0 means the paper's 1.5.
	Separation float64
	// Density, when in (0, 1), switches to the sparse generator: each
	// feature is nonzero independently with this probability, stored in CSR
	// form, and the label margin is computed over the support only — the
	// news20/RCV1-style workload class of the gradient-coding evaluations.
	// 0 (and 1) select the paper's dense Gaussian-mixture generator.
	Density float64
}

// Generate draws a synthetic dataset according to cfg using rng. With
// Density in (0, 1) the features are drawn sparse and stored in CSR form;
// otherwise the paper's dense Gaussian-mixture generator runs unchanged
// (same draw sequence as before Density existed, so existing seeds keep
// reproducing their datasets bit-for-bit).
func Generate(cfg Config, rng *rngutil.RNG) (*Dataset, error) {
	if cfg.N <= 0 || cfg.Dim <= 0 {
		return nil, fmt.Errorf("dataset: invalid config N=%d Dim=%d", cfg.N, cfg.Dim)
	}
	if cfg.Density < 0 || cfg.Density > 1 {
		return nil, fmt.Errorf("dataset: Density %v outside [0, 1]", cfg.Density)
	}
	sep := cfg.Separation
	if sep == 0 {
		sep = 1.5
	}
	p := cfg.Dim
	wstar := make([]float64, p)
	for i := range wstar {
		if rng.Bernoulli(0.5) {
			wstar[i] = 1
		} else {
			wstar[i] = -1
		}
	}
	if cfg.Density > 0 && cfg.Density < 1 {
		return generateSparse(cfg, sep, wstar, rng)
	}
	x := vecmath.NewMatrix(cfg.N, p)
	y := make([]float64, cfg.N)
	scale := sep / float64(p)
	for i := 0; i < cfg.N; i++ {
		row := x.Row(i)
		sign := 1.0
		if rng.Bernoulli(0.5) {
			sign = -1
		}
		for j := 0; j < p; j++ {
			row[j] = sign*scale*wstar[j] + rng.Normal()
		}
		margin := vecmath.Dot(row, wstar)
		y[i] = drawLabel(margin, rng)
	}
	return &Dataset{X: x, Y: y, WStar: wstar}, nil
}

// generateSparse is the CSR generator behind Config.Density: feature j of
// point i is nonzero with probability Density, and a nonzero entry carries
// the same class-mean-plus-noise value as the dense generator. The label
// margin runs over the support only, so the classes stay separable along
// w* restricted to each point's nonzero coordinates. The whole dataset is a
// pure function of (cfg, rng state).
func generateSparse(cfg Config, sep float64, wstar []float64, rng *rngutil.RNG) (*Dataset, error) {
	p := cfg.Dim
	scale := sep / float64(p)
	rowPtr := make([]int, cfg.N+1)
	estimate := int(float64(cfg.N*p)*cfg.Density) + cfg.N
	colIdx := make([]int, 0, estimate)
	vals := make([]float64, 0, estimate)
	y := make([]float64, cfg.N)
	for i := 0; i < cfg.N; i++ {
		sign := 1.0
		if rng.Bernoulli(0.5) {
			sign = -1
		}
		var margin float64
		for j := 0; j < p; j++ {
			if !rng.Bernoulli(cfg.Density) {
				continue
			}
			v := sign*scale*wstar[j] + rng.Normal()
			colIdx = append(colIdx, j)
			vals = append(vals, v)
			margin += v * wstar[j]
		}
		rowPtr[i+1] = len(vals)
		y[i] = drawLabel(margin, rng)
	}
	x, err := vecmath.NewCSR(cfg.N, p, rowPtr, colIdx, vals)
	if err != nil {
		return nil, fmt.Errorf("dataset: sparse generator produced invalid CSR: %w", err)
	}
	return &Dataset{X: x, Y: y, WStar: wstar}, nil
}

// drawLabel draws the +-1 label for a point with the given margin x^T w*
// under the paper's stated rule P(y=+1) = 1/(exp(x^T w*)+1) =
// sigma(-x^T w*), which anti-correlates label and margin.
func drawLabel(margin float64, rng *rngutil.RNG) float64 {
	if rng.Bernoulli(sigmoid(-margin)) {
		return 1
	}
	return -1
}

func sigmoid(z float64) float64 {
	// Numerically stable logistic function.
	if z >= 0 {
		e := expNeg(z)
		return 1 / (1 + e)
	}
	e := expNeg(-z)
	return e / (1 + e)
}

// expNeg computes exp(-z) for z >= 0 without overflow concerns.
func expNeg(z float64) float64 {
	if z > 700 {
		return 0
	}
	return math.Exp(-z)
}

// Units partitions the d data points into m contiguous units ("examples" in
// the coding layer's sense). Unit sizes differ by at most one; every point
// belongs to exactly one unit. It returns the per-unit row index slices.
func (d *Dataset) Units(m int) ([][]int, error) {
	n := d.N()
	if m <= 0 || m > n {
		return nil, fmt.Errorf("dataset: cannot split %d points into %d units", n, m)
	}
	units := make([][]int, m)
	base := n / m
	extra := n % m
	row := 0
	for u := 0; u < m; u++ {
		size := base
		if u < extra {
			size++
		}
		idx := make([]int, size)
		for i := range idx {
			idx[i] = row
			row++
		}
		units[u] = idx
	}
	return units, nil
}

// UnionSize returns the total number of rows covered by the given units; a
// helper for placement sanity checks.
func UnionSize(units [][]int) int {
	total := 0
	for _, u := range units {
		total += len(u)
	}
	return total
}
