package cluster

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestPoolCapBoundsRetention: Config.PoolCap bounds the run's BufferPool
// free list — buffers recycled past the cap spill to the GC instead of
// being retained, so one large-p job cannot starve concurrent tenants.
func TestPoolCapBoundsRetention(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 5, 31, nil)
	cfg.PoolCap = 3
	pool := cfg.Buffers()
	if pool.max != 3 {
		t.Fatalf("pool cap = %d, want the configured 3", pool.max)
	}
	dim := cfg.Model.Dim()
	for i := 0; i < 10; i++ {
		pool.Put(make([]float64, dim))
	}
	pool.mu.Lock()
	free := len(pool.free)
	pool.mu.Unlock()
	if free > 3 {
		t.Fatalf("free list holds %d buffers, cap is 3", free)
	}
	// A tiny cap costs allocations, never correctness: the run still
	// completes and decodes every iteration.
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 5 {
		t.Fatalf("capped-pool run completed %d/5 iterations", len(res.Iters))
	}
}

// TestPoolCapValidate: a negative cap is a configuration error.
func TestPoolCapValidate(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 5, 31, nil)
	cfg.PoolCap = -1
	if _, err := RunSim(cfg); err == nil {
		t.Fatal("negative PoolCap accepted")
	}
}

// TestDrainFabricWaitsForWorkers drives a run over a caller-owned TCP
// fabric (the service daemon's ownership pattern) and
// asserts DrainFabric's contract: after the engine returns, the drain waits
// until every worker has closed its side — so the master's Close cannot
// reset a connection with a reply still in flight — and no reader or worker
// goroutines leak.
func TestDrainFabricWaitsForWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg, _ := buildRun(t, "bcc", 6, 6, 2, 4, 33, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	for w := 0; w < 6; w++ {
		env := WorkerEnv{
			Index: w, Plan: cfg.Plan, Model: cfg.Model, Units: cfg.Units,
			Latency: Zero{}, Comm: cfg.Comm,
		}
		go func() { _ = DialAndServeWorker(addr, env) }()
	}
	fab, err := ServeMasterPool(ln, 6, 10*time.Second, "", cfg.Buffers(), cfg.Comm, cfg.Model.Dim())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithFabricContext(context.Background(), cfg, fab, LiveOptions{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 4 {
		t.Fatalf("completed %d/4 iterations", len(res.Iters))
	}
	if res.TotalWireIn <= 0 || res.TotalWireOut <= 0 {
		t.Fatalf("measured wire bytes missing: in=%d out=%d", res.TotalWireIn, res.TotalWireOut)
	}
	if !DrainFabric(fab, 10*time.Second) {
		t.Fatal("fabric did not drain: workers never closed their side")
	}
	if err := fab.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoExtraGoroutines(t, before)
}
