// Command bcccluster runs a REAL multi-process BCC cluster over TCP: one
// master process and n worker processes that connect to it. Master and
// workers deterministically reconstruct the same dataset and placement from
// the shared seed, so only models and gradients cross the wire — exactly
// like the paper's EC2 deployment, where data is loaded onto the workers
// before the iterations start.
//
// Demo on one machine:
//
//	bcccluster master -addr 127.0.0.1:9777 -m 12 -n 4 -r 3 -iters 20 &
//	for i in 0 1 2 3; do bcccluster worker -addr 127.0.0.1:9777 -index $i & done
//	wait
//
// All topology flags (-m -n -r -scheme -seed ...) must match between master
// and workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/faults"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	role := os.Args[1]
	fs := flag.NewFlagSet(role, flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9777", "master listen/dial address")
		scheme   = fs.String("scheme", "bcc", "gradient-coding scheme")
		m        = fs.Int("m", 12, "example units")
		n        = fs.Int("n", 4, "workers")
		r        = fs.Int("r", 3, "computational load")
		iters    = fs.Int("iters", 20, "gradient iterations")
		points   = fs.Int("points", 10, "data points per unit")
		dim      = fs.Int("dim", 100, "feature dimension")
		seed     = fs.Uint64("seed", 1, "shared seed (must match across processes)")
		index    = fs.Int("index", 0, "worker index (worker role only)")
		wait     = fs.Duration("timeout", 60*time.Second, "per-iteration / accept timeout")
		codec    = fs.String("codec", "raw64", "payload codec: raw64|f32|topk (must match across processes)")
		topk     = fs.Int("topk", 0, "coordinates kept per reply vector with -codec topk (0 = dim/16)")
		chunk    = fs.Int("chunk", 0, "wire framing chunk size in elements (0 = default; must match across processes)")
		drop     = fs.Float64("drop", 0, "master: probability in [0,1) of losing each worker transmission (fault-plan Drop, drawn from the -fault-seed stream)")
		faultsN  = fs.String("faults", "", "named fault scenario: "+strings.Join(faults.Names(), "|")+" (must match across processes)")
		faultSd  = fs.Uint64("fault-seed", 0, "seed for the -faults scenario (0 = derive from -seed; must match across processes)")
		parallel = fs.Int("parallel", 0, "goroutines per worker for gradient computation (0/1 = serial)")
		shards   = fs.Int("master-shards", 0, "master shards with scatter data planes on the master port +1..+M (0/1 = unsharded; must match across processes)")
		adapt    = fs.Bool("adapt", false, "master: with -scheme nested, retune the redundancy level each iteration with the built-in straggler-tracking controller")
		adaptWin = fs.Int("adapt-window", 0, "master: with -adapt, consecutive over-provisioned iterations before stepping the level down (0 = default 3)")
		progress = fs.Bool("progress", false, "master: print a live per-iteration progress line")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		fail(err)
	}

	// Both roles rebuild the identical job — data, placement and fault
	// schedule — from the shared seeds.
	job, err := core.NewJob(core.Spec{
		DataPoints:    *m * *points,
		Dim:           *dim,
		Examples:      *m,
		Workers:       *n,
		Load:          *r,
		Scheme:        core.Scheme(*scheme),
		Iterations:    *iters,
		Seed:          *seed,
		FaultScenario: *faultsN,
		FaultSeed:     *faultSd,
		Payload:       core.Payload(*codec),
		TopK:          *topk,
		WireChunk:     *chunk,
		// Validated here (nested-only, non-negative window) even though the
		// controller below is wired onto the Config directly.
		AdaptRedundancy: *adapt,
		AdaptWindow:     *adaptWin,
	})
	if err != nil {
		fail(err)
	}

	comm := cluster.CommOptions{Payload: *codec, TopK: *topk, Chunk: *chunk}

	// The scatter data plane needs no address exchange: shard s of a sharded
	// master listens on the master port +1+s, and both roles derive that. A
	// shard count beyond the model's wire chunks is clamped to the number of
	// non-empty shards so neither role opens (or dials) listeners for shards
	// that would own empty slices.
	effShards := *shards
	if max, err := comm.MaxShards(*dim); err == nil && effShards > max {
		fmt.Fprintf(os.Stderr, "bcccluster: -master-shards %d exceeds the %d wire chunk(s) of a %d-dim model; using %d\n",
			*shards, max, *dim, max)
		effShards = max
	}
	shardAddrs, err := shardAddrList(*addr, effShards)
	if err != nil {
		fail(err)
	}

	switch role {
	case "master":
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("master: listening on %s, waiting for %d workers\n", *addr, *n)
		var fab cluster.Fabric
		if len(shardAddrs) > 0 {
			// Bind every derived shard data port before accepting workers: the
			// ports are implicit (master port +1..+M), so a collision with an
			// unrelated service must fail fast, naming the port, rather than
			// surface as a hung worker dial mid-handshake.
			shardLns := make([]net.Listener, len(shardAddrs))
			for s, sa := range shardAddrs {
				if shardLns[s], err = net.Listen("tcp", sa); err != nil {
					fail(fmt.Errorf("shard %d data port %s is unavailable (derived as master port +%d; pick a master port with %d free successors): %w",
						s, sa, s+1, len(shardAddrs), err))
				}
			}
			fmt.Printf("master: %d shard data planes on %s .. %s\n", len(shardAddrs), shardAddrs[0], shardAddrs[len(shardAddrs)-1])
			fab, err = cluster.ServeMasterScatterPool(ln, shardLns, *n, *wait, nil, comm, job.Model.Dim())
		} else {
			fab, err = cluster.ServeMaster(ln, *n, *wait, comm, job.Model.Dim())
		}
		if err != nil {
			fail(err)
		}
		defer fab.Close()
		fmt.Println("master: all workers connected, training")
		// Only the master consults MasterDrop, so -drop lives on its plan alone.
		job.Faults.Drop = *drop
		cfg := &cluster.Config{
			Plan:               job.Plan,
			Model:              job.Model,
			Units:              job.Units,
			Opt:                job.Opt,
			Iterations:         *iters,
			Faults:             job.Faults,
			ComputeParallelism: *parallel,
			MasterShards:       effShards,
			Comm:               comm,
		}
		if *adapt {
			cfg.Controller = &cluster.AIMDController{Window: *adaptWin}
		}
		if *progress {
			cfg.Observer = cluster.ObserverFuncs{Iteration: func(st cluster.IterStats) {
				if st.Level > 0 {
					fmt.Printf("master: iter %4d  K %-4d L %-3d |grad| %.4e\n", st.Iter, st.WorkersHeard, st.Level, st.GradNorm)
					return
				}
				fmt.Printf("master: iter %4d  K %-4d |grad| %.4e\n", st.Iter, st.WorkersHeard, st.GradNorm)
			}}
		}
		// Ctrl-C cancels the run and reports the iterations that finished.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSignals()
		res, err := cluster.RunWithFabricContext(ctx, cfg, fab, cluster.LiveOptions{Timeout: *wait, TimeScale: 1})
		// Drain before the deferred Close: wait (bounded) for every worker to
		// observe the shutdown broadcast and close its side, so an interrupted
		// master ends worker processes with a clean close instead of a
		// connection reset mid-reply.
		if !cluster.DrainFabric(fab, 2*time.Second) {
			fmt.Fprintln(os.Stderr, "master: drain timed out; some workers may see a reset")
		}
		if err != nil {
			if res == nil || !errors.Is(err, context.Canceled) {
				fail(err)
			}
			fmt.Printf("master: interrupted after %d iterations\n", len(res.Iters))
		}
		fmt.Printf("master: done; avg recovery threshold %.2f, payload bytes %d, wire bytes in/out %d/%d, accuracy %.4f\n",
			res.AvgWorkersHeard, res.TotalBytes, res.TotalWireIn, res.TotalWireOut, job.Accuracy(res.FinalW))
		for _, ss := range res.Shards {
			fmt.Printf("master: shard %d [%d,%d) decode=%.3fms slice-bytes-in=%d\n",
				ss.Shard, ss.Lo, ss.Hi, float64(ss.DecodeNs)/1e6, ss.SliceBytesIn)
		}
	case "worker":
		if *index < 0 || *index >= *n {
			fail(fmt.Errorf("worker index %d out of range [0,%d)", *index, *n))
		}
		env := cluster.WorkerEnv{
			Index:              *index,
			Plan:               job.Plan,
			Model:              job.Model,
			Units:              job.Units,
			Latency:            cluster.Zero{},
			TimeScale:          1,
			Comm:               comm,
			Faults:             job.Faults,
			ComputeParallelism: *parallel,
			ShardAddrs:         shardAddrs,
		}
		fmt.Printf("worker %d: dialing %s\n", *index, *addr)
		if err := cluster.DialAndServeWorker(*addr, env); err != nil {
			fail(err)
		}
		fmt.Printf("worker %d: shutdown\n", *index)
	default:
		usage()
	}
}

// shardAddrList derives the scatter listeners' addresses for a sharded
// master: shard s lives at the master port +1+s. Returns nil when unsharded.
func shardAddrList(addr string, shards int) ([]string, error) {
	if shards <= 1 {
		return nil, nil
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-master-shards needs an explicit host:port master address: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 {
		return nil, fmt.Errorf("-master-shards needs a numeric master port, got %q", portStr)
	}
	out := make([]string, shards)
	for s := range out {
		out[s] = net.JoinHostPort(host, strconv.Itoa(port+1+s))
	}
	return out, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bcccluster master|worker [flags]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "bcccluster: %v\n", err)
	os.Exit(1)
}
