package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"bcc/internal/rngutil"
)

func randVec(rng *rngutil.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal()
	}
	return v
}

// add returns x + y in a fresh slice.
func add(x, y []float64) []float64 {
	z := Clone(x)
	AddInto(z, y)
	return z
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestScaleAddInto(t *testing.T) {
	x := []float64{2, 4}
	Scale(0.5, x)
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("Scale result %v", x)
	}
	AddInto(x, []float64{3, 4})
	if x[0] != 4 || x[1] != 6 {
		t.Fatalf("AddInto result %v", x)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v", got)
	}
	// Overflow guard: squaring 1e200 overflows float64 but the scaled
	// algorithm must not.
	if got := Norm2([]float64{1e200, 1e200}); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed where scaled algorithm should not")
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v", got)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 2}, []float64{1.5, 2}); got != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 9)
	if m.At(1, 2) != 9 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must share storage")
	}
	c := m.Clone()
	c.Set(0, 0, 77)
	if m.At(0, 0) == 77 {
		t.Fatal("Clone must not share storage")
	}
}

func TestGemvAgainstNaive(t *testing.T) {
	rng := rngutil.New(1)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.Normal()
		}
		x := randVec(rng, cols)
		y := Gemv(a, x)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += a.At(i, j) * x[j]
			}
			if math.Abs(y[i]-want) > 1e-12 {
				t.Fatalf("Gemv[%d] = %v, want %v", i, y[i], want)
			}
		}
	}
}

func TestSumVectors(t *testing.T) {
	s := []float64{-1, -1} // SumVectorsInto overwrites, whatever dst held
	SumVectorsInto(s, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if s[0] != 9 || s[1] != 12 {
		t.Fatalf("SumVectorsInto = %v", s)
	}
}

func TestSumVectorsDoesNotAliasInput(t *testing.T) {
	v := []float64{1, 2}
	s := make([]float64, 2)
	SumVectorsInto(s, [][]float64{v})
	s[0] = 99
	if v[0] == 99 {
		t.Fatal("SumVectorsInto must copy its first argument")
	}
}

func TestLinearCombination(t *testing.T) {
	out := []float64{5, 5} // LinearCombinationInto overwrites, whatever dst held
	LinearCombinationInto(out, []float64{2, -1}, [][]float64{{1, 0}, {0, 1}})
	if out[0] != 2 || out[1] != -1 {
		t.Fatalf("LinearCombinationInto = %v", out)
	}
}

func TestLinearCombinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	LinearCombinationInto(make([]float64, 1), []float64{1}, [][]float64{{1}, {2}})
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotPropertyLinear(t *testing.T) {
	rng := rngutil.New(5)
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		n := 1 + r.Intn(64)
		x, y, z := randVec(r, n), randVec(r, n), randVec(r, n)
		alpha := r.Normal()
		// <x+alpha*z, y> == <x,y> + alpha*<z,y> up to roundoff
		lhsVec := Clone(x)
		Axpy(alpha, z, lhsVec)
		lhs := Dot(lhsVec, y)
		rhs := Dot(x, y) + alpha*Dot(z, y)
		scale := math.Max(1, math.Abs(lhs))
		return math.Abs(lhs-rhs) < 1e-10*scale
	}
	cfg := &quick.Config{MaxCount: 200, Rand: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Gemv distributes over vector addition.
func TestGemvPropertyAdditive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		rows, cols := 1+r.Intn(16), 1+r.Intn(16)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = r.Normal()
		}
		x, y := randVec(r, cols), randVec(r, cols)
		lhs := Gemv(a, add(x, y))
		rhs := add(Gemv(a, x), Gemv(a, y))
		return MaxAbsDiff(lhs, rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
