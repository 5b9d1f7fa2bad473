package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

func randMatrix(rng *rngutil.RNG, rows, cols int) *vecmath.Matrix {
	a := vecmath.NewMatrix(rows, cols)
	for i := range a.Data {
		a.Data[i] = rng.Normal()
	}
	return a
}

func TestSolveLUExact(t *testing.T) {
	a := vecmath.NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveLU(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("SolveLU = %v", x)
	}
}

func TestSolveLURandomRoundTrip(t *testing.T) {
	rng := rngutil.New(10)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		a := randMatrix(rng, n, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Normal()
		}
		b := vecmath.Gemv(a, want)
		got, err := SolveLU(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := vecmath.MaxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: round-trip error %v", n, d)
		}
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := vecmath.NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLUDoesNotMutateInputs(t *testing.T) {
	rng := rngutil.New(11)
	a := randMatrix(rng, 5, 5)
	aCopy := a.Clone()
	b := []float64{1, 2, 3, 4, 5}
	bCopy := vecmath.Clone(b)
	if _, err := SolveLU(a, b); err != nil {
		t.Fatal(err)
	}
	if vecmath.MaxAbsDiff(a.Data, aCopy.Data) != 0 {
		t.Fatal("SolveLU mutated A")
	}
	if vecmath.MaxAbsDiff(b, bCopy) != 0 {
		t.Fatal("SolveLU mutated b")
	}
}

func TestLeastSquaresExactSquare(t *testing.T) {
	rng := rngutil.New(12)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(25)
		a := randMatrix(rng, n, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Normal()
		}
		b := vecmath.Gemv(a, want)
		got, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d := vecmath.MaxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("n=%d: error %v", n, d)
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 from noiseless samples; LS must recover it exactly.
	a := vecmath.NewMatrix(5, 2)
	b := make([]float64, 5)
	for i := 0; i < 5; i++ {
		x := float64(i)
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-1) > 1e-12 {
		t.Fatalf("LS fit = %v", got)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The LS residual must be orthogonal to the column space.
	rng := rngutil.New(13)
	for trial := 0; trial < 20; trial++ {
		m := 10 + rng.Intn(20)
		n := 1 + rng.Intn(9)
		a := randMatrix(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Normal()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r := vecmath.Gemv(a, x)
		vecmath.Axpy(-1, b, r)
		// A^T r == 0.
		atr := gemvT(a, r)
		if vecmath.NormInf(atr) > 1e-8 {
			t.Fatalf("residual not orthogonal: |A^T r|_inf = %v", vecmath.NormInf(atr))
		}
	}
}

// gemvT returns A^T*x in a fresh slice.
func gemvT(a *vecmath.Matrix, x []float64) []float64 {
	y := make([]float64, a.Cols)
	for i, xi := range x {
		vecmath.Axpy(xi, a.Row(i), y)
	}
	return y
}

func TestQRRankDetection(t *testing.T) {
	a := vecmath.NewMatrix(3, 2)
	// Second column is 2x the first -> rank 1.
	for i := 0; i < 3; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, 2*float64(i+1))
	}
	q, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if q.FullRank() {
		t.Fatal("rank-deficient matrix reported full rank")
	}
	if _, err := q.Solve([]float64{1, 2, 3}); err == nil {
		t.Fatal("solve on rank-deficient QR should fail")
	}
}

func TestQRShapeError(t *testing.T) {
	if _, err := NewQR(vecmath.NewMatrix(2, 3)); err == nil {
		t.Fatal("QR with rows < cols should fail")
	}
}

func TestMinNormRowSolve(t *testing.T) {
	// Find y with y^T A = c^T; verify the constraint and minimality against
	// a brute-force check on a small case.
	rng := rngutil.New(14)
	for trial := 0; trial < 30; trial++ {
		k := 5 + rng.Intn(10)
		n := 1 + rng.Intn(4)
		a := randMatrix(rng, k, n)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Normal()
		}
		y, err := MinNormRowSolve(a, c)
		if err != nil {
			t.Fatal(err)
		}
		// Check y^T A = c.
		got := gemvT(a, y)
		if d := vecmath.MaxAbsDiff(got, c); d > 1e-8 {
			t.Fatalf("constraint violated by %v", d)
		}
		// Minimum-norm solutions lie in the column space of A: y = A z.
		z, err := LeastSquares(a, y)
		if err != nil {
			t.Fatal(err)
		}
		back := vecmath.Gemv(a, z)
		if d := vecmath.MaxAbsDiff(back, y); d > 1e-6 {
			t.Fatalf("solution not in column space (distance %v)", d)
		}
	}
}

func TestResidualHelper(t *testing.T) {
	a := vecmath.NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	if r := Residual(a, []float64{1, 2}, []float64{1, 2}); r != 0 {
		t.Fatalf("identity residual = %v", r)
	}
}

// Property: for any invertible-ish random system, SolveLU and LeastSquares
// agree.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rngutil.New(seed)
		n := 2 + rng.Intn(12)
		a := randMatrix(rng, n, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Normal()
		}
		x1, err1 := SolveLU(a, b)
		x2, err2 := LeastSquares(a, b)
		if err1 != nil || err2 != nil {
			// Random Gaussian matrices are almost surely nonsingular; treat
			// a singular draw as a vacuous pass.
			return true
		}
		return vecmath.MaxAbsDiff(x1, x2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
