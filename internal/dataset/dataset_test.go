package dataset

import (
	"math"
	"testing"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

func TestGenerateShapes(t *testing.T) {
	rng := rngutil.New(1)
	d, err := Generate(Config{N: 100, Dim: 20, Separation: 1.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 100 || d.Dim() != 20 {
		t.Fatalf("shapes: N=%d Dim=%d", d.N(), d.Dim())
	}
	if len(d.Y) != 100 || len(d.WStar) != 20 {
		t.Fatal("label / weight lengths wrong")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	rng := rngutil.New(1)
	if _, err := Generate(Config{N: 0, Dim: 5}, rng); err == nil {
		t.Fatal("N=0 should fail")
	}
	if _, err := Generate(Config{N: 5, Dim: 0}, rng); err == nil {
		t.Fatal("Dim=0 should fail")
	}
}

func TestWStarIsSignVector(t *testing.T) {
	rng := rngutil.New(2)
	d, _ := Generate(Config{N: 10, Dim: 50, Separation: 1.5}, rng)
	for i, w := range d.WStar {
		if w != 1 && w != -1 {
			t.Fatalf("WStar[%d] = %v, want +-1", i, w)
		}
	}
}

func TestLabelsAreSigns(t *testing.T) {
	rng := rngutil.New(3)
	d, _ := Generate(Config{N: 500, Dim: 10, Separation: 1.5}, rng)
	pos := 0
	for _, y := range d.Y {
		if y != 1 && y != -1 {
			t.Fatalf("label %v not in {-1,+1}", y)
		}
		if y == 1 {
			pos++
		}
	}
	// Both classes should appear (mixture is symmetric).
	if pos == 0 || pos == 500 {
		t.Fatalf("degenerate label distribution: %d positives of 500", pos)
	}
}

func TestFeatureMoments(t *testing.T) {
	// Unit-variance Gaussian around tiny means: overall per-coordinate
	// variance should be ~1 and mean ~0 (mixture is symmetric).
	rng := rngutil.New(4)
	d, _ := Generate(Config{N: 4000, Dim: 5, Separation: 1.5}, rng)
	for j := 0; j < d.Dim(); j++ {
		var sum, sumsq float64
		for i := 0; i < d.N(); i++ {
			v := d.X.At(i, j)
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(d.N())
		variance := sumsq/float64(d.N()) - mean*mean
		if math.Abs(mean) > 0.1 {
			t.Fatalf("coordinate %d mean %v too large", j, mean)
		}
		if math.Abs(variance-1) > 0.15 {
			t.Fatalf("coordinate %d variance %v too far from 1", j, variance)
		}
	}
}

func TestPaperLabelRuleCorrelation(t *testing.T) {
	// Under the paper's rule P(y=+1) = sigma(-x^T w*), the label should be
	// anti-correlated with the margin x^T w*.
	rng := rngutil.New(5)
	d, _ := Generate(Config{N: 3000, Dim: 20, Separation: 10}, rng)
	var corr float64
	for i := 0; i < d.N(); i++ {
		margin := d.X.RowDot(i, d.WStar)
		corr += margin * d.Y[i]
	}
	if corr >= 0 {
		t.Fatalf("paper label rule should anti-correlate margin and label, got sum %v", corr)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Config{N: 50, Dim: 8, Separation: 1.5}, rngutil.New(99))
	b, _ := Generate(Config{N: 50, Dim: 8, Separation: 1.5}, rngutil.New(99))
	if vecmath.MaxAbsDiff(a.X.(*vecmath.Matrix).Data, b.X.(*vecmath.Matrix).Data) != 0 {
		t.Fatal("same seed produced different features")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestUnitsPartition(t *testing.T) {
	rng := rngutil.New(6)
	d, _ := Generate(Config{N: 103, Dim: 4, Separation: 1.5}, rng)
	units, err := d.Units(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 10 {
		t.Fatalf("unit count %d", len(units))
	}
	seen := make([]bool, d.N())
	for _, u := range units {
		for _, row := range u {
			if row < 0 || row >= d.N() || seen[row] {
				t.Fatalf("row %d repeated or out of range", row)
			}
			seen[row] = true
		}
	}
	for row, s := range seen {
		if !s {
			t.Fatalf("row %d not covered by any unit", row)
		}
	}
	// Sizes differ by at most 1.
	min, max := len(units[0]), len(units[0])
	for _, u := range units {
		if len(u) < min {
			min = len(u)
		}
		if len(u) > max {
			max = len(u)
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced units: min %d max %d", min, max)
	}
	if UnionSize(units) != d.N() {
		t.Fatalf("UnionSize = %d", UnionSize(units))
	}
}

func TestUnitsErrors(t *testing.T) {
	rng := rngutil.New(7)
	d, _ := Generate(Config{N: 10, Dim: 2, Separation: 1.5}, rng)
	if _, err := d.Units(0); err == nil {
		t.Fatal("m=0 should fail")
	}
	if _, err := d.Units(11); err == nil {
		t.Fatal("m>N should fail")
	}
	units, err := d.Units(10)
	if err != nil || len(units) != 10 {
		t.Fatal("m=N should give singleton units")
	}
	for _, u := range units {
		if len(u) != 1 {
			t.Fatal("m=N units must be singletons")
		}
	}
}
