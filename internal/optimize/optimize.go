// Package optimize implements the first-order update rules driven by the
// distributed gradient loop: plain gradient descent and Nesterov's
// accelerated gradient method (the paper trains logistic regression with the
// latter, §III-C).
//
// The distributed loop needs gradients at a point chosen by the optimizer
// (Nesterov evaluates at the look-ahead point, not at the iterate), so the
// interface splits each iteration into Query — the point to broadcast to
// workers — and Update — fold the aggregated gradient back in.
package optimize

import (
	"fmt"
	"math"

	"bcc/internal/vecmath"
)

// Optimizer is a first-order method advanced one gradient evaluation at a
// time.
type Optimizer interface {
	// Query returns the point at which the next gradient must be evaluated.
	// Callers must not mutate the returned slice.
	Query() []float64
	// Update consumes the gradient evaluated at the last Query point and
	// advances the iterate.
	Update(grad []float64)
	// Iterate returns the current solution estimate w_t (not the query
	// point). Callers must not mutate the returned slice.
	Iterate() []float64
	// Step returns the number of completed updates.
	Step() int
}

// SliceUpdater is the optional Optimizer capability that splits Update into
// its elementwise half, restricted to an arbitrary coordinate range, and a
// scalar half advancing the iteration state once. Applying UpdateSlice over
// any partition of [0, p) followed by one FinishStep reproduces Update(grad)
// bit-for-bit: UpdateSlice reads the scalar state (step count, momentum
// sequence) without mutating it.
//
// Deprecated: the master updates serially through Update. The interface
// remains only for the benchmark harness's optimizer wrapper and will be
// removed with it.
type SliceUpdater interface {
	Optimizer
	// UpdateSlice applies the update rule to coordinates [lo, hi) of the
	// iterate using grad[lo:hi]. The gradient must have been evaluated at the
	// last Query point; scalar state is read, never written.
	UpdateSlice(grad []float64, lo, hi int)
	// FinishStep advances the scalar state after every coordinate of the
	// current gradient has been applied via UpdateSlice. Exactly one
	// FinishStep must follow each complete partition.
	FinishStep()
}

// StepSize is a learning-rate schedule: it returns the step for iteration t
// (0-based).
type StepSize func(t int) float64

// Constant returns the constant schedule mu_t = mu.
func Constant(mu float64) StepSize {
	if mu <= 0 {
		panic(fmt.Sprintf("optimize: non-positive step size %v", mu))
	}
	return func(int) float64 { return mu }
}

// ---------------------------------------------------------------------------
// Gradient descent
// ---------------------------------------------------------------------------

// GD is plain gradient descent w_{t+1} = w_t - mu_t g_t.
type GD struct {
	w    []float64
	step StepSize
	t    int
}

// NewGD starts gradient descent from w0 (copied) with the given schedule.
func NewGD(w0 []float64, step StepSize) *GD {
	return &GD{w: vecmath.Clone(w0), step: step}
}

// Query implements Optimizer; GD evaluates gradients at the iterate itself.
func (g *GD) Query() []float64 { return g.w }

// Update implements Optimizer: UpdateSlice over the full range plus
// FinishStep.
func (g *GD) Update(grad []float64) {
	g.UpdateSlice(grad, 0, len(grad))
	g.FinishStep()
}

// UpdateSlice implements SliceUpdater: w[i] += -mu_t grad[i] for i in
// [lo, hi), the elementwise body of vecmath.Axpy restricted to the slice.
func (g *GD) UpdateSlice(grad []float64, lo, hi int) {
	alpha := -g.step(g.t)
	w := g.w[lo:hi]
	grad = grad[lo:hi][:len(w)]
	for i, gi := range grad {
		w[i] += alpha * gi
	}
}

// FinishStep implements SliceUpdater.
func (g *GD) FinishStep() { g.t++ }

// Iterate implements Optimizer.
func (g *GD) Iterate() []float64 { return g.w }

// Step implements Optimizer.
func (g *GD) Step() int { return g.t }

// ---------------------------------------------------------------------------
// Nesterov's accelerated gradient
// ---------------------------------------------------------------------------

// Nesterov implements the accelerated gradient method in its standard
// momentum form:
//
//	y_t     = w_t + beta_t (w_t - w_{t-1})
//	w_{t+1} = y_t - mu_t grad L(y_t)
//
// with beta_t = (theta_t - 1)/theta_{t+1} and theta_{t+1} =
// (1 + sqrt(1 + 4 theta_t^2)) / 2, theta_0 = 1 (the FISTA sequence).
type Nesterov struct {
	w, wPrev []float64
	y        []float64 // query point, rebuilt each iteration
	step     StepSize
	theta    float64
	t        int
}

// NewNesterov starts the accelerated method from w0 (copied).
func NewNesterov(w0 []float64, step StepSize) *Nesterov {
	return &Nesterov{
		w:     vecmath.Clone(w0),
		wPrev: vecmath.Clone(w0),
		y:     vecmath.Clone(w0),
		step:  step,
		theta: 1,
	}
}

// Query implements Optimizer: the look-ahead point y_t.
func (n *Nesterov) Query() []float64 {
	thetaNext := (1 + math.Sqrt(1+4*n.theta*n.theta)) / 2
	beta := (n.theta - 1) / thetaNext
	y := n.y
	w, wPrev := n.w[:len(y)], n.wPrev[:len(y)]
	for i, wi := range w {
		y[i] = wi + beta*(wi-wPrev[i])
	}
	return y
}

// Update implements Optimizer. The gradient must have been evaluated at the
// point returned by the immediately preceding Query call. It is UpdateSlice
// over the full range plus FinishStep.
func (n *Nesterov) Update(grad []float64) {
	n.UpdateSlice(grad, 0, len(grad))
	n.FinishStep()
}

// UpdateSlice implements SliceUpdater: the momentum step on coordinates
// [lo, hi). beta and mu are pure functions of the scalar state, recomputed
// identically in every slice, so any partition reproduces Update bit-for-bit.
func (n *Nesterov) UpdateSlice(grad []float64, lo, hi int) {
	thetaNext := (1 + math.Sqrt(1+4*n.theta*n.theta)) / 2
	beta := (n.theta - 1) / thetaNext
	mu := n.step(n.t)
	w := n.w[lo:hi]
	wPrev, g := n.wPrev[lo:hi][:len(w)], grad[lo:hi][:len(w)]
	for i, wi := range w {
		y := wi + beta*(wi-wPrev[i])
		wPrev[i] = wi
		w[i] = y - mu*g[i]
	}
}

// FinishStep implements SliceUpdater.
func (n *Nesterov) FinishStep() {
	n.theta = (1 + math.Sqrt(1+4*n.theta*n.theta)) / 2
	n.t++
}

// Iterate implements Optimizer.
func (n *Nesterov) Iterate() []float64 { return n.w }

// Step implements Optimizer.
func (n *Nesterov) Step() int { return n.t }

// ---------------------------------------------------------------------------
// Sequential driver (used by tests and as the single-node reference)
// ---------------------------------------------------------------------------

// GradFn evaluates a full (normalized) gradient at w.
type GradFn func(w []float64) []float64

// Run performs `iters` optimizer iterations using gradients from fn and
// returns the final iterate.
func Run(opt Optimizer, fn GradFn, iters int) []float64 {
	for i := 0; i < iters; i++ {
		g := fn(opt.Query())
		opt.Update(g)
	}
	return vecmath.Clone(opt.Iterate())
}

// GradIntoFn evaluates a full (normalized) gradient at w into out, fully
// overwriting it.
type GradIntoFn func(w, out []float64)

// RunInPlace performs `iters` optimizer iterations like Run but reuses one
// gradient buffer of length dim across all steps instead of allocating per
// step; fn writes each gradient into that buffer. The update sequence is
// identical to Run's, so the returned iterate is bit-for-bit the same for
// equivalent gradient functions.
func RunInPlace(opt Optimizer, fn GradIntoFn, dim, iters int) []float64 {
	g := make([]float64, dim)
	for i := 0; i < iters; i++ {
		fn(opt.Query(), g)
		opt.Update(g)
	}
	return vecmath.Clone(opt.Iterate())
}
