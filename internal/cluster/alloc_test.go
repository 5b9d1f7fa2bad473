package cluster

import (
	"math"
	"runtime"
	"testing"

	"bcc/internal/faults"
)

// The allocation-regression tests pin the tentpole property of the pooled
// data plane: once the first iteration has warmed the BufferPool and the
// per-worker scratch, a steady-state sim iteration — gradient compute,
// encode, arrival ordering, decode, optimizer advance — performs ZERO heap
// allocations per worker message. They measure by differencing: two
// identical runs that differ only in iteration count must cost the same
// number of allocations, because everything beyond the per-run fixed cost
// (decoder construction, result assembly) is reused.

// allocRun builds a reusable sim config+transport pair; RunTransport can be
// invoked on it repeatedly (the optimizer keeps advancing, which changes
// values but not allocation behaviour).
func allocRun(t *testing.T, scheme string, iters int) (*Config, *simTransport) {
	t.Helper()
	cfg, _ := buildRun(t, scheme, 8, 8, 2, iters, 77, Zero{})
	return cfg, newSimTransport(cfg)
}

// TestSimSteadyStateZeroAllocs asserts 0 allocations per worker message on
// the sim runtime's per-message path in steady state.
func TestSimSteadyStateZeroAllocs(t *testing.T) {
	// randomized and bccmulti send multiple messages per worker, pinning the
	// pool cap's scaling with the per-worker communication load.
	for _, scheme := range []string{"bcc", "uncoded", "cyclicrep", "fractional", "randomized", "bccmulti"} {
		t.Run(scheme, func(t *testing.T) {
			const shortIters, longIters = 2, 10
			cfgShort, trShort := allocRun(t, scheme, shortIters)
			cfgLong, trLong := allocRun(t, scheme, longIters)
			run := func(cfg *Config, tr *simTransport) {
				if _, err := RunTransport(cfg, tr); err != nil {
					t.Fatal(err)
				}
			}
			// Warm pools, scratch buffers and slice capacities.
			run(cfgShort, trShort)
			run(cfgLong, trLong)
			short := testing.AllocsPerRun(10, func() { run(cfgShort, trShort) })
			long := testing.AllocsPerRun(10, func() { run(cfgLong, trLong) })
			if long > short {
				_, n, _ := cfgLong.Plan.Params()
				extraMsgs := float64((longIters - shortIters) * n)
				t.Fatalf("steady-state iterations allocate: %.1f allocs for %d iterations vs %.1f for %d (%.3f allocs per worker message, want 0)",
					long, longIters, short, shortIters, (long-short)/extraMsgs)
			}
		})
	}
}

// TestTCPSteadyStateZeroAllocs is the tcp and live twin of
// TestSimSteadyStateZeroAllocs: the in-process runtimes at n = 8,
// p = 16384 — master engine, eight connection readers, eight worker loops,
// every frame encoded and decoded — allocate nothing per steady-state
// iteration, over sockets and over pipes alike.
// Queries land in recycled buffers, reply Msgs slices are recycled, and the
// live source and its deadline timer are reused. cyclicrep adds a coded
// decode through the plan's solve cache.
//
// A run's fixed cost (dials, goroutines, connection buffers) varies
// by a few dozen allocations from run to run, more than a short and a long
// run differ by, so the test differences the process's malloc count across
// the steady iterations of one run instead. Repeated runs on one Config
// share its pool and the plan's solve cache; the quietest run counts,
// because a real per-iteration allocation shows in every run, while a pool
// reaching a new peak of buffers in flight shows only in some.
func TestTCPSteadyStateZeroAllocs(t *testing.T) {
	check := func(t *testing.T, scheme string, tcp bool) {
		const warm, steady, runs, warmRuns = 30, 40, 8, 3
		cfg, _ := buildRunDim(t, scheme, 8, 8, 3, warm+steady, 81, Zero{}, 16384)
		var ms runtime.MemStats
		var from, to uint64
		cfg.Observer = ObserverFuncs{Iteration: func(st IterStats) {
			if st.Iter == warm-1 || st.Iter == warm+steady-1 {
				runtime.ReadMemStats(&ms)
				from, to = to, ms.Mallocs
			}
		}}
		quietest := uint64(math.MaxUint64)
		for run := 0; run < runs; run++ {
			if _, err := RunLive(cfg, LiveOptions{TCP: tcp, Drain: true}); err != nil {
				t.Fatal(err)
			}
			if run >= warmRuns {
				quietest = min(quietest, to-from)
			}
		}
		if quietest > 0 {
			t.Fatalf("%d steady-state iterations (tcp %v) allocated %d objects in the quietest of %d runs, want 0",
				steady, tcp, quietest, runs-warmRuns)
		}
	}
	// Each cell runs on tcp and, as its "live" subtest, over in-process
	// pipes: the same fabric with a different carrier.
	for _, scheme := range []string{"bcc", "cyclicrep"} {
		t.Run(scheme, func(t *testing.T) {
			check(t, scheme, true)
			t.Run("live", func(t *testing.T) { check(t, scheme, false) })
		})
	}
}

// TestSimZeroAllocsWithFaultPlan pins the steady-state allocation budget of
// the FaultPlan path: every per-iteration fault decision — crash windows,
// slowdown factors, partition, burst and i.i.d. drop checks, the engine's
// reachable-worker accounting — is a pure function consulted in place, so a
// fault-injected iteration allocates exactly as much as a fault-free one
// (zero per worker message). Differencing two run lengths over the SAME
// deterministic fault schedule isolates any regression.
func TestSimZeroAllocsWithFaultPlan(t *testing.T) {
	const shortIters, longIters = 2, 10
	plans := map[string]*faults.Plan{
		"rules": {N: 16, Seed: 5,
			Crashes:    []faults.Crash{{Worker: 0, At: 1, RestartAfter: 2}},
			Slowdowns:  []faults.Slowdown{{Worker: 3, From: 0, Every: 3, Span: 1, Factor: 4}},
			Partitions: []faults.Partition{{From: 4, To: 6, Lo: 8, Hi: 10}},
			Bursts:     &faults.DropBursts{StartProb: 0.3, Length: 2, Frac: 0.4},
		},
		"drop": {N: 16, Seed: 7, Drop: 0.1},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			mk := func(iters int) (*Config, *simTransport) {
				// High redundancy (2 batches, 16 workers) so the scheduled
				// faults never stall a decode.
				cfg, _ := buildRun(t, "bcc", 8, 16, 4, iters, 79, Zero{})
				cfg.Faults = plan
				return cfg, newSimTransport(cfg)
			}
			cfgShort, trShort := mk(shortIters)
			cfgLong, trLong := mk(longIters)
			run := func(cfg *Config, tr *simTransport) {
				if _, err := RunTransport(cfg, tr); err != nil {
					t.Fatal(err)
				}
			}
			run(cfgShort, trShort)
			run(cfgLong, trLong)
			short := testing.AllocsPerRun(10, func() { run(cfgShort, trShort) })
			long := testing.AllocsPerRun(10, func() { run(cfgLong, trLong) })
			if long > short {
				perIter := (long - short) / float64(longIters-shortIters)
				t.Fatalf("fault-plan iterations allocate: %.1f allocs for %d iterations vs %.1f for %d (%.2f allocs/iter, want 0)",
					long, longIters, short, shortIters, perIter)
			}
		})
	}
}

// TestBufferPoolRecycles pins the pool contract: Get returns recycled
// buffers, Put drops foreign sizes and respects the cap, and a nil pool
// degrades to allocation.
func TestBufferPoolRecycles(t *testing.T) {
	p := NewBufferPool(4, 2)
	b := p.Get()
	if len(b) != 4 {
		t.Fatalf("Get returned length %d", len(b))
	}
	b[0] = 42
	p.Put(b)
	if again := p.Get(); &again[0] != &b[0] {
		t.Fatal("Put buffer was not recycled by Get")
	}
	p.Put(make([]float64, 3)) // foreign size: dropped
	if got := p.Get(); len(got) != 4 {
		t.Fatalf("foreign-sized Put corrupted the pool: Get length %d", len(got))
	}
	// Cap: only 2 buffers retained.
	p.Put(make([]float64, 4))
	p.Put(make([]float64, 4))
	p.Put(make([]float64, 4))
	p.mu.Lock()
	free := len(p.free)
	p.mu.Unlock()
	if free != 2 {
		t.Fatalf("free list holds %d buffers, cap is 2", free)
	}
	var nilPool *BufferPool
	nilPool.Put(make([]float64, 4)) // must not panic
	if buf := nilPool.Buf(5); len(buf) != 5 {
		t.Fatalf("nil pool Buf returned length %d", len(buf))
	}
}
