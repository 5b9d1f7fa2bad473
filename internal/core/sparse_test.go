package core

import (
	"errors"
	"fmt"
	"testing"

	"bcc/internal/coding"
	"bcc/internal/dataset"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// TestDenseCSRTrainingBitEqual is the end-to-end sparse conformance
// property: for EVERY registered scheme and optimizer, training on a CSR
// dataset and on its dense expansion (same values, zeros materialized)
// produces bit-identical final weights over random seeded datasets — the
// whole pipeline from worker gradients through encode/decode to the
// optimizer is storage-agnostic.
func TestDenseCSRTrainingBitEqual(t *testing.T) {
	for _, scheme := range coding.Names() {
		for _, opt := range Optimizers() {
			scheme, opt := scheme, opt
			t.Run(fmt.Sprintf("%s/%s", scheme, opt), func(t *testing.T) {
				seed := uint64(900)
				sparse, err := dataset.Generate(dataset.Config{
					N: 48, Dim: 40, Separation: 1.5, Density: 0.25,
				}, rngutil.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				csr, ok := sparse.Sparse()
				if !ok {
					t.Fatal("generator did not produce CSR")
				}
				dense := &dataset.Dataset{X: csr.ToDense(), Y: sparse.Y, WStar: sparse.WStar}
				run := func(ds *dataset.Dataset) []float64 {
					spec := Spec{
						Examples: 12, Workers: 12, Load: 3,
						Iterations: 8, Seed: seed,
						Scheme: Scheme(scheme), Optimizer: opt,
					}
					job, err := NewJobWithData(spec, ds, rngutil.New(77))
					if err != nil {
						t.Skipf("%s rejects the topology: %v", scheme, err)
					}
					res, err := job.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res.FinalW
				}
				ws := run(sparse)
				wd := run(dense)
				if d := vecmath.MaxAbsDiff(ws, wd); d != 0 {
					t.Fatalf("CSR and dense training diverged by %v", d)
				}
			})
		}
	}
}

// TestSparseSpecEndToEnd drives Spec.Density through NewJob: the generated
// dataset must be CSR, train on every runtime's engine (sim suffices — the
// transports share it) and reproduce deterministically.
func TestSparseSpecEndToEnd(t *testing.T) {
	spec := Spec{
		Examples: 10, Workers: 10, Load: 2,
		DataPoints: 120, Dim: 64, Density: 0.1,
		Iterations: 6, Seed: 5,
	}
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	csr, ok := job.Data.Sparse()
	if !ok {
		t.Fatal("Spec.Density did not produce a CSR dataset")
	}
	if csr.NNZ() >= 120*64/2 {
		t.Fatalf("density 0.1 produced %d nonzeros of %d", csr.NNZ(), 120*64)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	job2, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := job2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(res.FinalW, res2.FinalW); d != 0 {
		t.Fatalf("sparse training not reproducible: %v", d)
	}
}

// TestSparseOptionValidation pins the new option errors.
func TestSparseOptionValidation(t *testing.T) {
	var optErr *OptionError
	if _, err := NewJob(Spec{Density: 1.5}); !errors.As(err, &optErr) || optErr.Option != "Density" {
		t.Fatalf("Density=1.5: %v", err)
	}
	if _, err := NewJob(Spec{Density: -0.1}); !errors.As(err, &optErr) || optErr.Option != "Density" {
		t.Fatalf("Density=-0.1: %v", err)
	}
}
