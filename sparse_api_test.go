package bcc

import (
	"strings"
	"testing"
)

// TestSparsePublicAPI exercises the sparse entry points end to end through
// the public surface: load a LIBSVM snippet, pad it to the model dimension,
// train, and check the run is deterministic.
func TestSparsePublicAPI(t *testing.T) {
	var sb strings.Builder
	// 24 rows, 3 units of 8, alternating labels over 16 features.
	for i := 0; i < 24; i++ {
		if i%2 == 0 {
			sb.WriteString("+1 1:1 3:0.5\n")
		} else {
			sb.WriteString("-1 2:1 4:-0.5\n")
		}
	}
	ds, err := LoadLIBSVM(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ds = PadDim(ds, 16)
	if ds.N() != 24 || ds.Dim() != 16 {
		t.Fatalf("loaded shape (%d,%d)", ds.N(), ds.Dim())
	}
	if _, ok := ds.Sparse(); !ok {
		t.Fatal("LIBSVM data should be CSR-backed")
	}
	run := func() []float64 {
		job, err := NewJobWithData(Spec{
			Examples: 6, Workers: 6, Load: 2,
			Scheme: SchemeCyclicRep, Iterations: 5, Seed: 9,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalW
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sparse public run not deterministic")
		}
	}
}

// TestSparseSpecDensityPublic drives the Density knob through bcc.Train.
func TestSparseSpecDensityPublic(t *testing.T) {
	res, err := Train(Spec{
		Examples: 8, Workers: 8, Load: 2,
		DataPoints: 80, Dim: 32, Density: 0.15,
		Iterations: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 4 {
		t.Fatalf("completed %d iterations", len(res.Iters))
	}
}
