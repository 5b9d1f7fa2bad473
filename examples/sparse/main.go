// Sparse compute plane walkthrough: generate a high-dimensional sparse
// dataset (CSR storage), measure the O(nnz)-vs-O(rows·p) worker-gradient
// gap against a densified copy of the SAME data, verify the gradients are
// bit-identical, then train on the sparse data — and finally load a
// LIBSVM-format snippet, the interchange format real sparse datasets
// (news20, RCV1, ...) ship in.
//
//	go run ./examples/sparse
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"bcc"
)

const libsvmSnippet = `# LIBSVM format: <label> <index>:<value> ..., indices 1-based ascending
+1 3:0.25 17:1.5 40:-0.75
-1 5:2 17:-0.5
+1 1:1 29:0.3 40:0.9
-1 3:-1 5:0.5 29:-2
`

func main() {
	// --- 1. A sparse synthetic dataset -----------------------------------
	// Spec.Density switches the seeded generator to CSR features: each of
	// the p coordinates is nonzero with probability 0.02, so the dataset
	// stores ~2% of rows*p entries and every gradient pass touches only
	// those.
	const (
		rows, p = 400, 8192
		density = 0.02
	)
	job, err := bcc.NewJob(bcc.Spec{
		Examples: 40, Workers: 40, Load: 8,
		DataPoints: rows, Dim: p, Density: density,
		Scheme: bcc.SchemeCyclicRep, Iterations: 20, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	csr, ok := job.Data.Sparse()
	if !ok {
		log.Fatal("expected CSR storage")
	}
	fmt.Printf("sparse dataset: %d x %d, nnz %d (%.2f%% of dense)\n",
		rows, p, csr.NNZ(), 100*float64(csr.NNZ())/float64(rows*p))

	// --- 2. O(nnz) vs O(rows*p), same bits -------------------------------
	// Densify the same matrix and time one full gradient pass on each. The
	// results must agree bit-for-bit: a stored zero contributes an exact
	// +-0.0 term, which cannot change a finite sum.
	dense := &bcc.Dataset{X: csr.ToDense(), Y: job.Data.Y, WStar: job.Data.WStar}
	w := make([]float64, p)
	for i := range w {
		w[i] = float64(i%7-3) / 10
	}
	timeGrad := func(ds *bcc.Dataset) (time.Duration, []float64) {
		j, err := bcc.NewJobWithData(bcc.Spec{Examples: 40, Workers: 40, Load: 8, Seed: 7}, ds)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		grad := make([]float64, p)
		j.Model.SubsetGradient(w, allRows(rows), grad)
		return time.Since(start), grad
	}
	dDense, gDense := timeGrad(dense)
	dSparse, gSparse := timeGrad(job.Data)
	for i := range gDense {
		if gDense[i] != gSparse[i] {
			log.Fatalf("gradient bit mismatch at %d", i)
		}
	}
	fmt.Printf("one worker gradient pass: dense %v, CSR %v (%.1fx) — bit-identical\n",
		dDense, dSparse, float64(dDense)/float64(dSparse))

	// --- 3. Train ---------------------------------------------------------
	res, err := job.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d iterations: avg K %.1f, accuracy %.4f\n",
		len(res.Iters), res.AvgWorkersHeard, job.Accuracy(res.FinalW))

	// --- 4. Real data: LIBSVM ---------------------------------------------
	// LoadLIBSVM parses straight into CSR; PadDim widens the dimension when
	// the model is wider than the largest index present in the file.
	ds, err := bcc.LoadLIBSVM(strings.NewReader(libsvmSnippet))
	if err != nil {
		log.Fatal(err)
	}
	ds = bcc.PadDim(ds, 64)
	fmt.Printf("libsvm snippet: %d examples, dim %d, nnz %d\n", ds.N(), ds.Dim(), ds.NNZ())
	ljob, err := bcc.NewJobWithData(bcc.Spec{
		Examples: 4, Workers: 4, Load: 1,
		Scheme: bcc.SchemeUncoded, Iterations: 5, Seed: 1,
	}, ds)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ljob.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("libsvm-loaded job trained; the whole pipeline is storage-agnostic")
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}
