package model

import (
	"testing"

	"bcc/internal/dataset"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// sparseDense draws a dense matrix with the given fraction of nonzeros and
// returns it with its CSR compression.
func sparseDense(rng *rngutil.RNG, rows, cols int, density float64) (*vecmath.Matrix, *vecmath.CSR) {
	m := vecmath.NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.Normal()
		}
	}
	return m, vecmath.CSRFromDense(m)
}

// TestModelsBitEqualDenseCSR is the model-level half of the sparse
// conformance story: evaluating gradients and losses against CSR storage
// holding exactly the dense matrix's nonzeros must produce bit-identical
// floats, over many random seeds and row subsets, for every tail length
// 0-9 after the blocks of four.
func TestModelsBitEqualDenseCSR(t *testing.T) {
	const rows, cols = 30, 24
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rngutil.New(seed * 131)
		dm, cm := sparseDense(rng, rows, cols, 0.2)
		y := randomLabels(rng, rows)
		w := make([]float64, cols)
		for i := range w {
			w[i] = rng.Normal()
		}
		dense := NewLogistic(&dataset.Dataset{X: dm, Y: y})
		spars := NewLogistic(&dataset.Dataset{X: cm, Y: y})
		if vecmath.MaxAbsDiff(FullGradient(dense, w), FullGradient(spars, w)) != 0 {
			t.Fatalf("seed %d: full gradients diverged", seed)
		}
		subsets := [][]int{rng.Sample(rows, rows/2)}
		for n := 0; n <= 9; n++ {
			subsets = append(subsets, rng.Sample(rows, n))
		}
		for _, subset := range subsets {
			sd := make([]float64, cols)
			ss := make([]float64, cols)
			dense.SubsetGradient(w, subset, sd)
			spars.SubsetGradient(w, subset, ss)
			if vecmath.MaxAbsDiff(sd, ss) != 0 {
				t.Fatalf("seed %d, %d rows: subset gradients diverged", seed, len(subset))
			}
			if ld, ls := dense.SubsetLoss(w, subset), spars.SubsetLoss(w, subset); ld != ls {
				t.Fatalf("seed %d, %d rows: losses diverged: %v != %v", seed, len(subset), ld, ls)
			}
		}
	}
}
