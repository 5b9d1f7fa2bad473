package cluster

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"bcc/internal/faults"
	"bcc/internal/model"
	"bcc/internal/trace"
	"bcc/internal/vecmath"
)

// The equivalence tests pin the arrival order: with a per-worker staggered
// Fixed latency the workers finish strictly in index order, spaced far
// enough apart (in scaled real time) that the goroutine and TCP runtimes
// realize the same order the simulator models. Every runtime then counts
// the same worker set, so recovery thresholds and comm loads must agree
// exactly — the engine is one piece of code, only the transport differs.

// staggerGapVirtual is the virtual-seconds gap between consecutive workers'
// arrivals; with liveEquivScale it is 15 ms of real time per step, wide
// enough to be robust against scheduler jitter on loaded CI machines.
const (
	staggerGapVirtual = 1.0
	liveEquivScale    = 15e-3
)

// staggered returns a Fixed latency whose worker w finishes its (equal-load)
// computation (w+1)*staggerGapVirtual virtual seconds after broadcast.
func staggered(n, points int) Fixed {
	factors := make([]float64, n)
	for w := range factors {
		factors[w] = float64(w + 1)
	}
	return Fixed{PerPoint: staggerGapVirtual / float64(points), Factor: factors}
}

// equivCase is one row of the cross-runtime equivalence table.
type equivCase struct {
	name    string
	scheme  string
	m, n, r int
	iters   int
	seed    uint64
	faults  *faults.Plan
}

func (c equivCase) config(t *testing.T) *Config {
	t.Helper()
	// buildRun gives every worker points = 4*r raw points (equal loads), so
	// the staggered factors alone fix the arrival order.
	cfg, _ := buildRun(t, c.scheme, c.m, c.n, c.r, c.iters, c.seed, staggered(c.n, 4*c.r))
	cfg.Faults = c.faults
	return cfg
}

// engineRuntime is one way of running the shared engine.
type engineRuntime struct {
	name string
	run  func(cfg *Config) (*Result, error)
}

func equivRuntimes() []engineRuntime {
	liveOpts := func(tcp bool) LiveOptions {
		return LiveOptions{TimeScale: liveEquivScale, Timeout: 60 * time.Second, TCP: tcp}
	}
	return []engineRuntime{
		{"sim", RunSim},
		{"live", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(false)) }},
		{"tcp", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(true)) }},
	}
}

// TestRuntimesEquivalent asserts that the sim, live and tcp runtimes produce
// identical per-iteration recovery thresholds, comm loads and payload bytes,
// and bit-identical weights, for the same Spec-level inputs and seed —
// including fault plans with a dead worker and with i.i.d. drops.
func TestRuntimesEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	cases := []equivCase{
		{name: "bcc", scheme: "bcc", m: 8, n: 6, r: 2, iters: 2, seed: 50},
		{name: "uncoded", scheme: "uncoded", m: 6, n: 6, r: 1, iters: 2, seed: 51},
		{name: "cyclicrep-dead", scheme: "cyclicrep", m: 6, n: 6, r: 2, iters: 2, seed: 52, faults: crashPlan(6, 2)},
		{name: "cyclicrep", scheme: "cyclicrep", m: 6, n: 6, r: 2, iters: 2, seed: 53},
		{name: "bcc-drops", scheme: "bcc", m: 8, n: 12, r: 2, iters: 2, seed: 54, faults: &faults.Plan{N: 12, Seed: 7, Drop: 0.2}},
		{name: "uncoded-idle", scheme: "uncoded", m: 4, n: 6, r: 1, iters: 2, seed: 55},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var ref *Result
			var refName string
			for _, rt := range equivRuntimes() {
				res, err := rt.run(tc.config(t))
				if err != nil {
					t.Fatalf("%s: %v", rt.name, err)
				}
				if len(res.Iters) != tc.iters {
					t.Fatalf("%s recorded %d iterations, want %d", rt.name, len(res.Iters), tc.iters)
				}
				if ref == nil {
					ref, refName = res, rt.name
					continue
				}
				for i, it := range res.Iters {
					want := ref.Iters[i]
					if it.WorkersHeard != want.WorkersHeard {
						t.Errorf("%s iter %d: recovery threshold %d, %s saw %d",
							rt.name, i, it.WorkersHeard, refName, want.WorkersHeard)
					}
					if it.Units != want.Units {
						t.Errorf("%s iter %d: comm load %v, %s saw %v",
							rt.name, i, it.Units, refName, want.Units)
					}
					if it.Bytes != want.Bytes {
						t.Errorf("%s iter %d: payload %d bytes, %s saw %d",
							rt.name, i, it.Bytes, refName, want.Bytes)
					}
				}
				if d := vecmath.MaxAbsDiff(res.FinalW, ref.FinalW); d != 0 {
					t.Errorf("%s final weights differ from %s by %v", rt.name, refName, d)
				}
			}
		})
	}
}

// countingModel counts the partial gradients a run (or one worker) computes.
type countingModel struct {
	model.Model
	calls *atomic.Int64
}

func (c countingModel) SubsetGradient(w []float64, rows []int, out []float64) {
	c.calls.Add(1)
	c.Model.SubsetGradient(w, rows, out)
}

// TestSimComputesOnlyCountedWorkers pins the simulator's lazy worker
// pipeline: an iteration computes the partial gradients of the workers the
// master counts before its decode and no others, while the trace still
// lists every contributing worker's modelled span, the uncounted tail
// included. TotalWall is the sum of the iterations' decode instants.
func TestSimComputesOnlyCountedWorkers(t *testing.T) {
	// One heavy straggler: its arrival trails every decode point.
	lat := Fixed{PerPoint: 0.01, PerUnit: 1, Factor: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 50}}
	const n = 10
	cfg, _ := buildRun(t, "bcc", 8, n, 2, 6, 60, lat)
	cfg.IngressPerUnit = 0.01
	var calls atomic.Int64
	cfg.Model = countingModel{Model: cfg.Model, calls: &calls}
	var perIter []int
	cfg.Observer = ObserverFuncs{Iteration: func(IterStats) {
		perIter = append(perIter, int(calls.Swap(0)))
	}}
	var rec trace.Recorder
	cfg.Trace = &rec
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != len(res.Iters) {
		t.Fatalf("traced %d of %d iterations", rec.Len(), len(res.Iters))
	}
	var wall float64
	for i, it := range res.Iters {
		wall += it.Wall
		spans := rec.Iterations[i].Spans
		if len(spans) != n {
			t.Fatalf("iter %d traced %d workers, want all %d", i, len(spans), n)
		}
		held, counted := 0, 0
		for _, sp := range spans {
			if sp.Counted {
				counted++
				held += len(cfg.Plan.Assignments()[sp.Worker])
			}
		}
		if counted != it.WorkersHeard || counted == n {
			t.Fatalf("iter %d counted %d workers (K = %d of %d)", i, counted, it.WorkersHeard, n)
		}
		if perIter[i] != held {
			t.Fatalf("iter %d computed %d partial gradients, the counted workers hold %d", i, perIter[i], held)
		}
	}
	if res.TotalWall != wall {
		t.Fatalf("TotalWall %v, want the sum of iteration walls %v", res.TotalWall, wall)
	}
}

// TestLiveCancelsStragglers runs the goroutine runtime with one
// catastrophically slow worker: the fresher broadcasts must preempt its
// stale sleeps so the run finishes fast, and cancellation must not perturb
// the training outcome.
func TestLiveCancelsStragglers(t *testing.T) {
	factors := make([]float64, 30)
	for i := range factors {
		factors[i] = 1
	}
	factors[0] = 1000
	lat := Fixed{PerPoint: 1e-4, PerUnit: 0.01, Factor: factors}
	mk := func() *Config {
		cfg, _ := buildRun(t, "bcc", 10, 30, 2, 4, 61, lat)
		return cfg
	}
	start := time.Now()
	res, err := RunLive(mk(), LiveOptions{TimeScale: 1e-2, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("live run waited for the straggler: %v", elapsed)
	}
	simCfg := mk()
	simRes, err := RunSim(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(res.FinalW, simRes.FinalW); d != 0 {
		t.Fatalf("live weights differ from sim by %v", d)
	}
}

// TestRunTransportValidates covers the exported engine entry point future
// runtimes use.
func TestRunTransportValidates(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 3, 63, Zero{})
	cfg.Iterations = 0
	if _, err := RunTransport(cfg, newSimTransport(cfg)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunTransportSimRoundTrip exercises RunTransport on a valid config so
// the exported path is known-good, and checks the wall bookkeeping: with
// zero latency and no ingress cost every round decodes at time 0 on the
// virtual clock.
func TestRunTransportSimRoundTrip(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 4, 64, Zero{})
	res, err := RunTransport(cfg, newSimTransport(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 4 {
		t.Fatalf("recorded %d iterations", len(res.Iters))
	}
	if res.TotalWall != 0 {
		t.Fatalf("zero-latency run has wall %v", res.TotalWall)
	}
	if math.IsNaN(res.AvgWorkersHeard) || res.AvgWorkersHeard <= 0 {
		t.Fatalf("avg workers heard %v", res.AvgWorkersHeard)
	}
}
