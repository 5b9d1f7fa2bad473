// TCP cluster: the same BCC training job, but master and workers exchange
// models and coded gradients over REAL loopback TCP sockets (wire frames),
// with per-worker goroutines sleeping their drawn straggler latencies. The
// run is deadline-bounded through RunContext and observed live through an
// Observer. For a multi-PROCESS cluster, run a cmd/bccserve daemon with
// bccserve -join workers and submit the job with bcctrain -submit.
//
//	go run ./examples/tcp_cluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"bcc"
)

func main() {
	lat, err := bcc.NewShiftExpLatency(16, []bcc.ShiftExpParams{{
		CommShift: 2e-3, CommMu: 5, // per-message delay with an exp tail
	}}, bcc.NewRNG(99))
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	job, err := bcc.NewJob(bcc.Spec{
		Examples:   8,
		Workers:    16,
		Load:       2,
		Scheme:     bcc.SchemeBCC,
		DataPoints: 64,
		Dim:        64,
		Iterations: 20,
		Seed:       3,
		Runtime:    bcc.RuntimeTCP, // loopback sockets instead of in-process pipes
		TimeScale:  1e-2,           // 1 virtual second sleeps 10 ms
		Latency:    lat,
		// Watch each iteration's gradient become decodable as the recovery
		// threshold is reached over real sockets.
		Observer: bcc.ObserverFuncs{Decode: func(ev bcc.DecodeEvent) {
			if ev.Iter%5 == 0 {
				fmt.Printf("  iter %2d decodable after %d workers\n", ev.Iter, ev.WorkersHeard)
			}
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	// A generous deadline guards the demo against a wedged network: the run
	// would return the completed iterations plus context.DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := job.RunContext(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trained over TCP in %v (real time)\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  iterations:             %d\n", len(res.Iters))
	fmt.Printf("  avg recovery threshold: %.2f of 16 workers\n", res.AvgWorkersHeard)
	fmt.Printf("  bytes through sockets:  %d\n", res.TotalBytes)
	fmt.Printf("  training accuracy:      %.4f\n", job.Accuracy(res.FinalW))
}
