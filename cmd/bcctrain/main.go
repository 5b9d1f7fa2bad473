// Command bcctrain runs one distributed logistic-regression training job
// with a chosen gradient-coding scheme, runtime and straggler profile, and
// prints the paper's metrics (recovery threshold, comm/comp breakdown).
//
// The run is context-bounded and observable: -timeout deadline-bounds it,
// Ctrl-C interrupts it, and both print the partial stats of the iterations
// that finished; -progress streams a per-iteration line from an Observer
// hooked into the master engine; -grad-tol stops early once the gradient
// norm falls below a tolerance; -checkpoint-every auto-checkpoints the
// optimizer during the run.
//
// Examples:
//
//	bcctrain -scheme bcc -m 50 -n 50 -r 10 -iters 100 -ec2
//	bcctrain -scheme cyclicrep -m 20 -n 20 -r 5 -runtime tcp -progress
//	bcctrain -scheme uncoded -m 20 -n 20 -dead 3,7    # fails fast: below the decodable threshold
//	bcctrain -ec2 -timeout 5s                         # partial results at the deadline
//	bcctrain -faults rolling-restart -progress        # deterministic fault scenario
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/experiments"
	"bcc/internal/faults"
	"bcc/internal/rngutil"
	"bcc/internal/service"
	"bcc/internal/trace"
)

func main() {
	var (
		scheme   = flag.String("scheme", "bcc", "gradient code: bcc|uncoded|cyclicrep|cyclicmds|fractional|randomized")
		m        = flag.Int("m", 50, "number of example units")
		n        = flag.Int("n", 50, "number of workers")
		r        = flag.Int("r", 10, "computational load (units per worker)")
		iters    = flag.Int("iters", 100, "gradient iterations")
		points   = flag.Int("points", 10, "raw data points per unit")
		dim      = flag.Int("dim", 800, "feature dimension p")
		step     = flag.Float64("step", 0.5, "learning rate")
		optName  = flag.String("opt", "nesterov", "optimizer: nesterov|gd")
		seed     = flag.Uint64("seed", 1, "random seed")
		runtime  = flag.String("runtime", "sim", "runtime: sim|live|tcp")
		codec    = flag.String("codec", "raw64", "payload codec: raw64|f32|topk (lossy codecs compress gradient traffic deterministically)")
		topk     = flag.Int("topk", 0, "coordinates kept per reply vector with -codec topk (0 = dim/16)")
		chunk    = flag.Int("chunk", 0, "wire framing chunk size in elements for the tcp runtime's wire frames (0 = default)")
		ec2      = flag.Bool("ec2", false, "inject the calibrated EC2-like straggler profile")
		dead     = flag.String("dead", "", "comma-separated worker indices that never respond (fault-plan crashes at iteration 0)")
		drop     = flag.Float64("drop", 0, "probability in [0,1) of losing each worker transmission (fault-plan Drop, drawn from the -fault-seed stream)")
		faultsN  = flag.String("faults", "", "named fault scenario: "+strings.Join(faults.Names(), "|"))
		faultSd  = flag.Uint64("fault-seed", 0, "seed for the -faults scenario and the -drop pattern (0 = derive from -seed)")
		parallel = flag.Int("parallel", 0, "goroutines per worker for gradient computation (0/1 = serial)")
		shards   = flag.Int("master-shards", 0, "master shards owning contiguous coordinate slices of decode+update (0/1 = unsharded; bit-identical results)")
		adapt    = flag.Bool("adapt", false, "with -scheme nested: retune the redundancy level each iteration with the built-in straggler-tracking controller")
		adaptWin = flag.Int("adapt-window", 0, "with -adapt: consecutive over-provisioned iterations before stepping the level down (0 = default 3)")
		density  = flag.Float64("density", 0, "feature density in (0,1) for a sparse CSR dataset (0 = dense)")
		timeout  = flag.Duration("timeout", 0, "deadline for the whole run (0 = none); on expiry partial stats are printed")
		progress = flag.Bool("progress", false, "print a live per-iteration progress line (iter, workers heard, grad norm)")
		gradTol  = flag.Float64("grad-tol", 0, "stop early once the gradient norm falls to this tolerance (0 = run all iterations)")
		lossEv   = flag.Int("loss-every", 10, "record training loss every k iterations (0=never)")
		doTrace  = flag.Bool("trace", false, "print an ASCII Gantt of the first iteration (sim runtime)")
		ckptOut  = flag.String("checkpoint", "", "write optimizer state here after the run")
		ckptEv   = flag.Int("checkpoint-every", 0, "also auto-checkpoint to -checkpoint every k iterations during the run")
		resume   = flag.String("resume", "", "restore optimizer state from this checkpoint before running")
		submit   = flag.String("submit", "", "submit the job to a bccserve daemon at this address instead of running locally")
	)
	flag.Parse()

	spec := core.Spec{
		DataPoints:         *m * *points,
		Dim:                *dim,
		Examples:           *m,
		Workers:            *n,
		Load:               *r,
		Scheme:             core.Scheme(*scheme),
		Iterations:         *iters,
		StepSize:           *step,
		Optimizer:          core.Optimizer(*optName),
		Seed:               *seed,
		Runtime:            core.Runtime(*runtime),
		Payload:            core.Payload(*codec),
		TopK:               *topk,
		WireChunk:          *chunk,
		FaultScenario:      *faultsN,
		FaultSeed:          *faultSd,
		ComputeParallelism: *parallel,
		MasterShards:       *shards,
		AdaptRedundancy:    *adapt,
		AdaptWindow:        *adaptWin,
		Density:            *density,
		GradNormTol:        *gradTol,
		LossEvery:          *lossEv,
	}
	if *ec2 {
		lat, err := experiments.EC2Latency(*n, *points, rngutil.New(*seed^0xec2))
		if err != nil {
			fail(err)
		}
		spec.Latency = lat
		spec.IngressPerUnit = 5.5e-3
	}
	if *dead != "" || *drop != 0 {
		// -dead and -drop are spellings of fault-plan content: extend the
		// plan the spec resolves to (the -faults scenario, or an empty plan).
		plan, err := spec.FaultPlan()
		if err != nil {
			fail(err)
		}
		if *dead != "" {
			for _, tok := range strings.Split(*dead, ",") {
				idx, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil {
					fail(fmt.Errorf("bad -dead entry %q: %w", tok, err))
				}
				plan.Crashes = append(plan.Crashes, faults.Crash{Worker: idx})
			}
		}
		plan.Drop = *drop
		spec.Faults = plan
	}
	if *submit != "" {
		// Remote submission ships only the serializable spec; process-local
		// options cannot travel and are rejected up front with their flag
		// names (EncodeSpec would catch Latency/Trace/checkpointing too, but
		// the flag names are friendlier than the spec field names).
		switch {
		case *ec2:
			fail(fmt.Errorf("-submit cannot ship the -ec2 latency model; model stragglers with -faults, -dead or -drop"))
		case *doTrace:
			fail(fmt.Errorf("-submit does not support -trace"))
		case *ckptOut != "" || *ckptEv > 0 || *resume != "":
			fail(fmt.Errorf("-submit does not support checkpoint flags (checkpoints are local to the daemon)"))
		}
		submitRemote(*submit, spec, *progress, *timeout)
		return
	}
	if *progress {
		spec.Observer = cluster.ObserverFuncs{
			Iteration: func(st cluster.IterStats) {
				if st.Level > 0 {
					fmt.Printf("iter %4d  wall %8.4fs  K %-4d L %-3d |grad| %.4e\n", st.Iter, st.Wall, st.WorkersHeard, st.Level, st.GradNorm)
					return
				}
				fmt.Printf("iter %4d  wall %8.4fs  K %-4d |grad| %.4e\n", st.Iter, st.Wall, st.WorkersHeard, st.GradNorm)
			},
			Fault: func(ev faults.Event) {
				fmt.Printf("fault %s\n", ev)
			},
		}
	}
	if *ckptEv > 0 {
		if *ckptOut == "" {
			fail(fmt.Errorf("-checkpoint-every requires -checkpoint"))
		}
		spec.CheckpointEvery = *ckptEv
		spec.CheckpointPath = *ckptOut
	}

	var rec *trace.Recorder
	if *doTrace {
		if *runtime != "sim" {
			fail(fmt.Errorf("-trace requires -runtime sim"))
		}
		rec = &trace.Recorder{}
		spec.Trace = rec
	}

	job, err := core.NewJob(spec)
	if err != nil {
		fail(err)
	}
	completed := 0
	if *resume != "" {
		// Sharded jobs resume from the per-shard file set written by a
		// sharded run; unsharded jobs from the single file.
		if completed, err = job.RestoreShardedCheckpoint(*resume); err != nil {
			fail(err)
		}
		fmt.Printf("resumed from %s (%d iterations already completed)\n", *resume, completed)
	}

	fmt.Printf("training logistic regression: scheme=%s m=%d n=%d r=%d p=%d points=%d runtime=%s\n",
		*scheme, *m, *n, *r, *dim, spec.DataPoints, *runtime)
	fmt.Printf("plan: worst-case threshold=%d expected threshold=%.2f comm load/worker=%.0f\n",
		job.Plan.WorstCaseThreshold(), job.Plan.ExpectedThreshold(), job.Plan.CommLoadPerWorker())

	// Ctrl-C cancels the run; -timeout deadline-bounds it. Either way the
	// partial Result of the finished iterations is printed below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := job.RunContext(ctx)
	interrupted := false
	if err != nil {
		if res == nil || !errors.Is(err, ctx.Err()) {
			fail(err)
		}
		interrupted = true
		fmt.Printf("\nrun interrupted (%v) after %d iterations; partial results:\n", err, len(res.Iters))
	}
	fmt.Printf("\n%-6s %-10s %-10s %-8s %-10s\n", "iter", "wall(s)", "K", "units", "loss")
	for _, it := range res.Iters {
		if *lossEv == 0 || it.Iter%*lossEv != 0 {
			continue
		}
		fmt.Printf("%-6d %-10.4f %-10d %-8.0f %-10.5f\n", it.Iter, it.Wall, it.WorkersHeard, it.Units, it.Loss)
	}
	fmt.Printf("\ntotals: wall=%.3fs comm=%.3fs comp=%.3fs elapsed=%.3fs\n",
		res.TotalWall, res.TotalComm, res.TotalCompute, res.TotalElapsed)
	fmt.Printf("per-iteration wall:                     %s\n", res.WallSummary())
	fmt.Printf("recovery threshold (avg workers heard): %.2f\n", res.AvgWorkersHeard)
	fmt.Printf("communication load (avg units):         %.2f\n", res.AvgUnits)
	fmt.Printf("payload bytes received by master:       %d\n", res.TotalBytes)
	if spec.AdaptRedundancy {
		fmt.Printf("redundancy level switches:              %d\n", res.LevelSwitches)
	}
	if res.TotalWireIn > 0 || res.TotalWireOut > 0 {
		fmt.Printf("measured wire bytes (in/out):           %d/%d\n", res.TotalWireIn, res.TotalWireOut)
	}
	for _, ss := range res.Shards {
		fmt.Printf("master shard %d [%d,%d): decode=%.3fms slice-bytes-in=%d\n",
			ss.Shard, ss.Lo, ss.Hi, float64(ss.DecodeNs)/1e6, ss.SliceBytesIn)
	}
	fmt.Printf("training accuracy:                      %.4f\n", job.Accuracy(res.FinalW))

	if *ckptOut != "" {
		if err := job.CheckpointSharded(*ckptOut, completed+len(res.Iters)); err != nil {
			fail(err)
		}
		if spec.MasterShards > 1 {
			fmt.Printf("checkpoint written to %s.shard0..%d (one file per master shard)\n",
				*ckptOut, spec.MasterShards-1)
		} else {
			fmt.Printf("checkpoint written to %s\n", *ckptOut)
		}
	}

	if rec != nil && rec.Len() > 0 {
		gantt, err := rec.Gantt(0, 80)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\ntimeline of iteration 0 (b=broadcast c=compute u=upload q=queued D=drain |=decode):\n%s", gantt)
	}
	if interrupted {
		os.Exit(1)
	}
}

// submitRemote ships the spec to a bccserve daemon and watches the job to a
// terminal state. Ctrl-C cancels the job on the daemon (which keeps the
// partial result) rather than abandoning it. Exits nonzero unless the job
// ends done.
func submitRemote(addr string, spec core.Spec, progress bool, timeout time.Duration) {
	c, err := service.Dial(addr)
	if err != nil {
		fail(err)
	}
	defer c.Close()
	st, err := c.Submit(spec)
	if err != nil {
		fail(err)
	}
	fmt.Printf("submitted job %d to %s: scheme=%s runtime=%s n=%d iters=%d\n",
		st.ID, addr, st.Scheme, st.Runtime, st.Workers, st.Iterations)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	lastIter := -1
	onStatus := func(s service.JobStatus) {
		if progress && s.Iter != lastIter {
			lastIter = s.Iter
			fmt.Printf("job %d: %-8s iter %4d/%d  K %-3d |grad| %.4e\n",
				s.ID, s.State, s.Iter, s.Iterations, s.WorkersHeard, s.GradNorm)
		}
	}
	fin, err := c.Watch(ctx, st.ID, 200*time.Millisecond, onStatus)
	if err != nil && ctx.Err() != nil {
		fmt.Printf("interrupted; canceling job %d on the daemon\n", st.ID)
		if _, cerr := c.Cancel(st.ID); cerr != nil {
			fail(cerr)
		}
		if fin, err = c.Watch(context.Background(), st.ID, 100*time.Millisecond, nil); err != nil {
			fail(err)
		}
	} else if err != nil {
		fail(err)
	}

	fmt.Printf("\njob %d finished: state=%s", fin.ID, fin.State)
	if fin.Err != "" {
		fmt.Printf(" (%s)", fin.Err)
	}
	fmt.Println()
	fmt.Printf("iterations completed:   %d/%d\n", fin.Iter, fin.Iterations)
	fmt.Printf("queue / run seconds:    %.3f / %.3f\n", fin.QueueSeconds, fin.RunSeconds)
	fmt.Printf("final gradient norm:    %.4e\n", fin.GradNorm)
	if fin.Loss != 0 {
		fmt.Printf("last sampled loss:      %.5f\n", fin.Loss)
	}
	fmt.Printf("payload bytes:          %d\n", fin.Bytes)
	if fin.WireIn > 0 || fin.WireOut > 0 {
		fmt.Printf("measured wire bytes:    %d in / %d out\n", fin.WireIn, fin.WireOut)
	}
	for _, ss := range fin.Shards {
		fmt.Printf("master shard %d [%d,%d): decode=%.3fms slice-bytes-in=%d\n",
			ss.Shard, ss.Lo, ss.Hi, float64(ss.DecodeNs)/1e6, ss.SliceBytesIn)
	}
	if fin.Faults > 0 {
		fmt.Printf("fault events:           %d\n", fin.Faults)
	}
	if fin.State != core.JobDone {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "bcctrain: %v\n", err)
	os.Exit(1)
}
