package optimize

import (
	"math"
	"testing"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// quadGrad returns the gradient function of f(w) = 0.5 (w-c)^T D (w-c) for
// diagonal D, plus the optimum and Lipschitz constant.
func quadGrad(diag, center []float64) (GradFn, float64) {
	var lip float64
	for _, d := range diag {
		if d > lip {
			lip = d
		}
	}
	return func(w []float64) []float64 {
		g := make([]float64, len(w))
		for i := range w {
			g[i] = diag[i] * (w[i] - center[i])
		}
		return g
	}, lip
}

// dist returns the Euclidean distance ||a - b||.
func dist(a, b []float64) float64 {
	d := vecmath.Clone(a)
	vecmath.Axpy(-1, b, d)
	return vecmath.Norm2(d)
}

func TestGDConvergesOnQuadratic(t *testing.T) {
	diag := []float64{1, 2, 5}
	center := []float64{3, -1, 0.5}
	grad, lip := quadGrad(diag, center)
	opt := NewGD(make([]float64, 3), Constant(1/lip))
	w := Run(opt, grad, 500)
	if d := vecmath.MaxAbsDiff(w, center); d > 1e-6 {
		t.Fatalf("GD distance to optimum %v", d)
	}
	if opt.Step() != 500 {
		t.Fatalf("Step = %d", opt.Step())
	}
}

func TestNesterovConvergesOnQuadratic(t *testing.T) {
	diag := []float64{1, 2, 5}
	center := []float64{3, -1, 0.5}
	grad, lip := quadGrad(diag, center)
	opt := NewNesterov(make([]float64, 3), Constant(1/lip))
	w := Run(opt, grad, 500)
	if d := vecmath.MaxAbsDiff(w, center); d > 1e-6 {
		t.Fatalf("Nesterov distance to optimum %v", d)
	}
}

func TestNesterovFasterThanGDOnIllConditioned(t *testing.T) {
	// On a badly conditioned quadratic, Nesterov should be closer to the
	// optimum than GD after the same number of iterations.
	rng := rngutil.New(1)
	n := 20
	diag := make([]float64, n)
	center := make([]float64, n)
	for i := range diag {
		diag[i] = math.Pow(10, -3*float64(i)/float64(n-1)) // kappa = 1e3
		center[i] = rng.Normal()
	}
	grad, lip := quadGrad(diag, center)
	iters := 150
	wGD := Run(NewGD(make([]float64, n), Constant(1/lip)), grad, iters)
	wNAG := Run(NewNesterov(make([]float64, n), Constant(1/lip)), grad, iters)
	dGD, dNAG := dist(wGD, center), dist(wNAG, center)
	if dNAG >= dGD {
		t.Fatalf("Nesterov (%v) not faster than GD (%v) on ill-conditioned quadratic", dNAG, dGD)
	}
}

func TestNesterovQueryIsLookahead(t *testing.T) {
	grad, _ := quadGrad([]float64{1}, []float64{0})
	opt := NewNesterov([]float64{10}, Constant(0.5))
	// First iteration: theta=1 -> beta=0, query == iterate.
	q0 := vecmath.Clone(opt.Query())
	if q0[0] != 10 {
		t.Fatalf("first query %v, want iterate", q0)
	}
	opt.Update(grad(q0))
	// Second iteration: beta > 0, query must differ from the iterate
	// (momentum extrapolation).
	q1 := vecmath.Clone(opt.Query())
	if q1[0] == opt.Iterate()[0] {
		t.Fatal("second query should be extrapolated beyond the iterate")
	}
}

func TestQueryUpdateConsistency(t *testing.T) {
	// Calling Query multiple times without Update must return the same
	// point, so the distributed loop can broadcast retries safely.
	opt := NewNesterov([]float64{1, 2}, Constant(0.1))
	grad, _ := quadGrad([]float64{1, 1}, []float64{0, 0})
	opt.Update(grad(opt.Query()))
	a := vecmath.Clone(opt.Query())
	b := vecmath.Clone(opt.Query())
	if vecmath.MaxAbsDiff(a, b) != 0 {
		t.Fatal("repeated Query returned different points")
	}
}

func TestConstantPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Constant(0) did not panic")
		}
	}()
	Constant(0)
}

func TestGDDoesNotAliasInput(t *testing.T) {
	w0 := []float64{1, 2}
	opt := NewGD(w0, Constant(0.1))
	opt.Update([]float64{1, 1})
	if w0[0] != 1 || w0[1] != 2 {
		t.Fatal("NewGD must copy its starting point")
	}
}

func TestSnapshotRestoreGD(t *testing.T) {
	grad, _ := quadGrad([]float64{1, 2}, []float64{0, 0})
	a := NewGD([]float64{3, 4}, Constant(0.2))
	for i := 0; i < 5; i++ {
		a.Update(grad(a.Query()))
	}
	snap := a.Snapshot()
	b := NewGD([]float64{0, 0}, Constant(0.2))
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Both must evolve identically from here.
	for i := 0; i < 5; i++ {
		a.Update(grad(a.Query()))
		b.Update(grad(b.Query()))
	}
	if vecmath.MaxAbsDiff(a.Iterate(), b.Iterate()) != 0 {
		t.Fatal("restored GD diverged")
	}
	if a.Step() != b.Step() {
		t.Fatalf("step counters differ: %d vs %d", a.Step(), b.Step())
	}
}

func TestSnapshotRestoreNesterov(t *testing.T) {
	grad, _ := quadGrad([]float64{1, 3}, []float64{1, -1})
	a := NewNesterov([]float64{5, 5}, Constant(0.1))
	for i := 0; i < 7; i++ {
		a.Update(grad(a.Query()))
	}
	snap := a.Snapshot()
	// Snapshot must be a deep copy: mutate and ensure isolation.
	snap2 := a.Snapshot()
	snap2.W[0] = 999
	if a.Iterate()[0] == 999 {
		t.Fatal("snapshot aliases optimizer state")
	}
	b := NewNesterov([]float64{0, 0}, Constant(0.1))
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		a.Update(grad(a.Query()))
		b.Update(grad(b.Query()))
	}
	if vecmath.MaxAbsDiff(a.Iterate(), b.Iterate()) != 0 {
		t.Fatal("restored Nesterov diverged (momentum state lost?)")
	}
}

func TestRestoreValidation(t *testing.T) {
	g := NewGD([]float64{1}, Constant(0.1))
	if err := g.Restore(State{Kind: "nesterov", W: []float64{1}}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if err := g.Restore(State{Kind: "gd", W: []float64{1, 2}}); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	n := NewNesterov([]float64{1}, Constant(0.1))
	if err := n.Restore(State{Kind: "gd", W: []float64{1}, WPrev: []float64{1}}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestRunReturnsCopy(t *testing.T) {
	grad, _ := quadGrad([]float64{1}, []float64{0})
	opt := NewGD([]float64{5}, Constant(0.5))
	w := Run(opt, grad, 3)
	w[0] = 999
	if opt.Iterate()[0] == 999 {
		t.Fatal("Run must return a copy of the iterate")
	}
}

// TestUpdateSliceMatchesUpdate is the SliceUpdater contract test: applying
// UpdateSlice over an arbitrary partition of [0, p) — in shuffled order —
// followed by one FinishStep reproduces Update bit-for-bit over many
// iterations, for both optimizers.
func TestUpdateSliceMatchesUpdate(t *testing.T) {
	const dim, iters = 103, 25
	// A step that shrinks with t, so a FinishStep missing from the sliced
	// path changes GD's result too.
	inverseTime := func(t int) float64 { return 0.5 / (1 + float64(t)/10) }
	build := map[string]func() SliceUpdater{
		"gd":       func() SliceUpdater { return NewGD(make([]float64, dim), inverseTime) },
		"nesterov": func() SliceUpdater { return NewNesterov(make([]float64, dim), inverseTime) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			ref, sliced := mk(), mk()
			rng := rngutil.New(17)
			grad := make([]float64, dim)
			for it := 0; it < iters; it++ {
				// Both must be queried: Nesterov's query rebuilds y, and the
				// gradient must be a function of the (identical) query point.
				q := ref.Query()
				sliced.Query()
				for i := range grad {
					grad[i] = math.Sin(float64(i+1)*0.3) * (q[i] + 1/float64(it+1))
				}
				ref.Update(grad)

				// Random uneven partition applied in shuffled order.
				var bounds []int
				for lo := 0; lo < dim; {
					hi := lo + 1 + rng.Intn(40)
					if hi > dim {
						hi = dim
					}
					bounds = append(bounds, lo, hi)
					lo = hi
				}
				for _, s := range rng.Perm(len(bounds) / 2) {
					sliced.UpdateSlice(grad, bounds[2*s], bounds[2*s+1])
				}
				sliced.FinishStep()

				if d := vecmath.MaxAbsDiff(ref.Iterate(), sliced.Iterate()); d != 0 {
					t.Fatalf("iter %d: sliced iterate diverged by %v", it, d)
				}
				if ref.Step() != sliced.Step() {
					t.Fatalf("iter %d: step %d vs %d", it, ref.Step(), sliced.Step())
				}
			}
		})
	}
}
