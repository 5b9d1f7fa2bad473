package main

import (
	"fmt"
	"math"

	"bcc/internal/core"
)

// verifyRun checks what one tcp job computed, from the per-iteration stats
// its observer collected:
//
//   - the first verifyIters gradient norms equal a sim-runtime run of the same
//     spec and seed — bit for bit when w.gradNormTol is 0, else within that
//     relative tolerance;
//   - the last gradient norm is below the first (the optimizer made progress);
//   - every iteration heard exactly w.exactHeard workers, when set.
func verifyRun(w workload, seed uint64, gradNorms []float64, heard []int) error {
	spec, err := w.jobSpec(seed, verifyIters, core.RuntimeSim)
	if err != nil {
		return err
	}
	ref, err := core.NewJob(spec)
	if err != nil {
		return err
	}
	res, err := ref.Run()
	if err != nil {
		return fmt.Errorf("sim reference: %w", err)
	}
	if len(gradNorms) < verifyIters {
		return fmt.Errorf("only %d iterations to verify, need %d", len(gradNorms), verifyIters)
	}
	for i, st := range res.Iters {
		got, want := gradNorms[i], st.GradNorm
		if math.Abs(got-want) > w.gradNormTol*math.Abs(want) {
			return fmt.Errorf("iteration %d: GradNorm %v over tcp, %v on sim (tolerance %g)", i, got, want, w.gradNormTol)
		}
	}
	if first, last := gradNorms[0], gradNorms[len(gradNorms)-1]; !(last < first) {
		return fmt.Errorf("GradNorm did not fall: %v at iteration 0, %v at iteration %d", first, last, len(gradNorms)-1)
	}
	if w.exactHeard > 0 {
		for i, h := range heard {
			if h != w.exactHeard {
				return fmt.Errorf("iteration %d heard %d workers, want %d", i, h, w.exactHeard)
			}
		}
	}
	return nil
}
