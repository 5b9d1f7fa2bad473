// Fault tolerance: the paper's Reliability and Universality claims under
// worker failures. The cyclic-repetition code tolerates exactly s = r-1
// dead workers; BCC tolerates any failures that leave its batches covered
// (with high probability many more); the uncoded baseline tolerates none.
//
//	go run ./examples/fault_tolerance
package main

import (
	"errors"
	"fmt"
	"log"

	"bcc"
)

// spec builds the job with the given workers dead: each is a fault-plan
// crash at iteration 0 that never restarts.
func spec(scheme bcc.Scheme, m, n, r int, dead []int) bcc.Spec {
	plan := &bcc.FaultPlan{N: n}
	for _, w := range dead {
		plan.Crashes = append(plan.Crashes, bcc.FaultCrash{Worker: w, At: 0})
	}
	return bcc.Spec{
		Examples:   m,
		Workers:    n,
		Load:       r,
		Scheme:     scheme,
		DataPoints: m * 8,
		Dim:        100,
		Iterations: 20,
		Seed:       11,
		Faults:     plan,
	}
}

func main() {
	const (
		m, n = 12, 12
		r    = 3 // CR tolerates s = r-1 = 2 dead workers
	)

	fmt.Printf("cluster: m=%d n=%d r=%d; killing workers one by one\n\n", m, n, r)
	fmt.Printf("%-12s %-8s %-24s\n", "scheme", "#dead", "outcome")

	for _, scheme := range []bcc.Scheme{bcc.SchemeUncoded, bcc.SchemeCyclicRep, bcc.SchemeBCC} {
		for nDead := 0; nDead <= 3; nDead++ {
			dead := make([]int, nDead)
			for i := range dead {
				dead[i] = i * 3 // workers 0, 3, 6
			}
			res, err := bcc.Train(spec(scheme, m, n, r, dead))
			switch {
			case err == nil:
				fmt.Printf("%-12s %-8d trained (avg K %.1f, accuracy %.3f)\n",
					scheme, nDead, res.AvgWorkersHeard, trainAccuracy(scheme, m, n, r, dead))
			case errors.Is(err, bcc.ErrBelowThreshold):
				// Provably unrecoverable: the engine degrades before running
				// the doomed iteration rather than waiting out a stall.
				fmt.Printf("%-12s %-8d DEGRADED: below the scheme's decodable minimum (fail-fast)\n", scheme, nDead)
			case errors.Is(err, bcc.ErrStalled):
				fmt.Printf("%-12s %-8d STALLED: gradient unrecoverable\n", scheme, nDead)
			default:
				log.Fatal(err)
			}
		}
		fmt.Println()
	}
	fmt.Println("cyclicrep survives exactly s = r-1 = 2 failures (worst-case design);")
	fmt.Println("bcc survives any failures that leave every batch covered — usually more,")
	fmt.Println("with no prior knowledge of the straggler count (the paper's universality).")

	// Dynamic faults: a named FaultPlan scenario replays a deterministic
	// crash/restart schedule identically on every runtime; the observer
	// streams the fault events as they take effect.
	fmt.Println("\nrolling-restart scenario on bcc (deterministic crash/restart schedule):")
	res, err := bcc.Train(bcc.Spec{
		Examples: m, Workers: n, Load: r, Scheme: bcc.SchemeBCC,
		DataPoints: m * 8, Dim: 100, Iterations: 20, Seed: 11,
		FaultScenario: "rolling-restart",
		Observer: bcc.ObserverFuncs{
			Fault: func(ev bcc.FaultEvent) { fmt.Printf("  %s\n", ev) },
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained through the restarts: avg K %.1f over %d iterations\n",
		res.AvgWorkersHeard, len(res.Iters))
}

// trainAccuracy reruns the job to compute accuracy (Train returns only the
// result; rebuilding keeps the example short).
func trainAccuracy(scheme bcc.Scheme, m, n, r int, dead []int) float64 {
	job, err := bcc.NewJob(spec(scheme, m, n, r, dead))
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		log.Fatal(err)
	}
	return job.Accuracy(res.FinalW)
}
