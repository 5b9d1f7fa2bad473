package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bcc/internal/coding"
	"bcc/internal/faults"
	"bcc/internal/vecmath"
)

// The scenario conformance suite: every named fault scenario must produce
// bit-identical iterates and identical fault-event traces on the sim, live
// and tcp runtimes. The suite leans on
// the same staggered-latency construction as the cross-runtime equivalence
// tests — worker w's (equal-load) computation finishes (w+1) virtual
// seconds after broadcast, so arrival order is fixed — and on the fault
// plan being a pure function of its seed, so all runtimes consult an
// identical schedule. The scenario library's slowdown factors keep the
// slowed arrival times distinct from every unslowed one (products of
// distinct staggers with factors 6 or 8 never collide with staggers 1..n),
// so the realized order stays deterministic on the live runtimes too.
//
// Matrix cells are labelled "/barrier", the engine's round structure on
// every runtime: the next query goes out only once the current one has
// decoded, and Result.TotalElapsed charges each round's straggler tail.

// scenarioTopology is the shared conformance run shape: bcc with 2 batches
// over 8 workers (high redundancy, decode from any batch-covering prefix),
// which survives every library scenario's blast radius.
const (
	scenarioM, scenarioN, scenarioR = 8, 8, 4
	scenarioIters                   = 5
	scenarioSeed                    = 401
	// scenarioScale maps one virtual stagger second to 10 ms of real time —
	// wide enough for scheduler jitter, short enough that the slowed-worker
	// scenarios (factor up to 8 on stagger up to 8) stay test-sized.
	scenarioScale = 10e-3
)

// scenarioRun is one runtime's observation of a scenario: the result plus
// the fault-event trace seen by the observer.
type scenarioRun struct {
	res    *Result
	events []string
}

// runScenario executes the named scenario on one runtime. run is nil for
// the sim reference.
func runScenario(t *testing.T, name string, run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	return runScenarioComm(t, name, CommOptions{}, run)
}

// runScenarioComm is runScenario with an explicit payload-codec
// configuration — the codec axis of the conformance matrix.
func runScenarioComm(t *testing.T, name string, comm CommOptions, run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	return runScenarioCfg(t, name, comm, nil, run)
}

// runScenarioCfg is the fully general scenario runner: mut, if non-nil, may
// adjust the built Config before the run (the sharded-master conformance
// suite sets MasterShards through it).
func runScenarioCfg(t *testing.T, name string, comm CommOptions, mut func(*Config), run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	return runPlanCfg(t, scenarioPlan(t, name), comm, mut, run)
}

// scenarioPlan builds the named library scenario at the conformance size.
func scenarioPlan(t *testing.T, name string) *faults.Plan {
	t.Helper()
	plan, err := faults.Scenario(name, scenarioN, 9)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// runPlanCfg is runScenarioCfg over an explicit fault plan.
func runPlanCfg(t *testing.T, plan *faults.Plan, comm CommOptions, mut func(*Config), run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	cfg, _ := buildRun(t, "bcc", scenarioM, scenarioN, scenarioR, scenarioIters, scenarioSeed,
		staggered(scenarioN, 4*scenarioR))
	cfg.Faults = plan
	cfg.Comm = comm
	// ComputeParallelism stays serial here because worker-side fan-out adds
	// real compute-time jitter to the staggered-arrival construction on
	// loaded machines; its bit-exactness is pinned by the dedicated
	// TestComputeParallelism* tests.
	if mut != nil {
		mut(cfg)
	}
	var events []string
	cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) {
		events = append(events, ev.String())
	}}
	if run == nil {
		run = RunSim
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("fault plan %+v: %v", plan, err)
	}
	return scenarioRun{res: res, events: events}
}

// scenarioRuntimes lists the runtimes under conformance; sim is the
// reference implementation.
func scenarioRuntimes() []engineRuntime {
	opts := func(tcp bool) LiveOptions {
		return LiveOptions{TimeScale: scenarioScale, Timeout: 60 * time.Second, TCP: tcp}
	}
	return []engineRuntime{
		{"live", func(cfg *Config) (*Result, error) { return RunLive(cfg, opts(false)) }},
		{"tcp", func(cfg *Config) (*Result, error) { return RunLive(cfg, opts(true)) }},
	}
}

// compareScenarioRuns asserts run `got` is indistinguishable from `ref` in
// every runtime-independent observable: per-iteration recovery threshold,
// comm load, payload bytes, gradient norm and level, bit-identical final
// weights and an identical fault-event trace. sim marks a sim-vs-sim
// comparison, which additionally holds the virtual timings (Wall, Compute,
// Comm) to whole-struct equality. Against a live or tcp run those are real
// observations — Compute included: it is the max over whichever workers were
// counted, and a scheduler hiccup can swap one counted worker for another
// without changing K, units, bytes or the BCC gradient.
func compareScenarioRuns(t *testing.T, label string, got, ref scenarioRun, sim bool) {
	t.Helper()
	if len(got.res.Iters) != len(ref.res.Iters) {
		t.Fatalf("%s completed %d iterations, reference %d", label, len(got.res.Iters), len(ref.res.Iters))
	}
	for i, it := range got.res.Iters {
		want := ref.res.Iters[i]
		// The NaN Loss sentinel compares unequal to itself; neutralize it so
		// struct equality checks the rest.
		it.Loss, want.Loss = 0, 0
		if !sim {
			it.Wall, want.Wall = 0, 0
			it.Compute, want.Compute = 0, 0
			it.Comm, want.Comm = 0, 0
			it.WireBytesIn, want.WireBytesIn = 0, 0
			it.WireBytesOut, want.WireBytesOut = 0, 0
		}
		if it != want {
			t.Errorf("%s iter %d: stats %+v, reference %+v", label, i, it, want)
		}
	}
	if d := vecmath.MaxAbsDiff(got.res.FinalW, ref.res.FinalW); d != 0 {
		t.Errorf("%s final weights differ from reference by %v", label, d)
	}
	if gotTr, wantTr := strings.Join(got.events, "\n"), strings.Join(ref.events, "\n"); gotTr != wantTr {
		t.Errorf("%s fault-event trace:\n%s\nreference saw:\n%s", label, gotTr, wantTr)
	}
}

// TestScenarioConformance is the tentpole suite: for every named scenario,
// and for plan content no scenario uses (i.i.d. drops plus a worker dead
// from the start), the live and tcp runtimes must reproduce the sim
// reference exactly — per-iteration recovery thresholds, comm loads, payload
// bytes, gradient norms, bit-identical final weights and an identical
// fault-event trace.
func TestScenarioConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	type cell struct {
		name string
		plan *faults.Plan
		// first, if set, is the reference trace's first event.
		first string
	}
	cells := []cell{{
		name:  "drop-crash0",
		plan:  &faults.Plan{N: scenarioN, Seed: 9, Drop: 0.15, Crashes: []faults.Crash{{Worker: 2, At: 0}}},
		first: "iter=0 crash w2",
	}}
	for _, name := range faults.Names() {
		cells = append(cells, cell{name: name, plan: scenarioPlan(t, name)})
	}
	for _, c := range cells {
		t.Run(c.name+"/barrier", func(t *testing.T) {
			t.Parallel()
			ref := runPlanCfg(t, c.plan, CommOptions{}, nil, nil)
			if len(ref.res.Iters) != scenarioIters {
				t.Fatalf("sim completed %d iterations, want %d", len(ref.res.Iters), scenarioIters)
			}
			if c.first != "" && (len(ref.events) == 0 || ref.events[0] != c.first) {
				t.Fatalf("sim fault trace %v, want it to open with %q", ref.events, c.first)
			}
			for _, rt := range scenarioRuntimes() {
				compareScenarioRuns(t, rt.name, runPlanCfg(t, c.plan, CommOptions{}, nil, rt.run), ref, false)
			}
		})
	}
}

// TestScenarioFaultsPerturbTraining sanity-checks that the fault machinery
// actually bites: relative to the steady baseline, each disruptive scenario
// must change SOME observable of the sim run (recovery thresholds, counted
// worker sets or event traces) while still training to the same optimum
// tolerance as an unfaulted run.
func TestScenarioFaultsPerturbTraining(t *testing.T) {
	steady := runScenario(t, "steady", nil)
	if len(steady.events) != 0 {
		t.Fatalf("steady scenario emitted events: %v", steady.events)
	}
	for _, name := range []string{"flaky-tail", "rolling-restart", "partition", "slow-decile"} {
		got := runScenario(t, name, nil)
		if len(got.events) == 0 {
			t.Errorf("scenario %s emitted no fault events", name)
		}
		// Tail slowdowns may leave the decode prefix untouched (that is the
		// point of the redundancy) but then must still stretch the barrier's
		// tail drain, i.e. the end-to-end elapsed time.
		same := got.res.TotalElapsed == steady.res.TotalElapsed
		for i, it := range got.res.Iters {
			ref := steady.res.Iters[i]
			if it.WorkersHeard != ref.WorkersHeard || it.Units != ref.Units || it.Wall != ref.Wall {
				same = false
				break
			}
		}
		if same {
			t.Errorf("scenario %s left every observable identical to steady", name)
		}
	}
}

// TestScenarioBelowThresholdDegrades pins the explicit degradation
// contract on all three runtimes: when the fault plan crashes the cluster
// below the scheme's decodable minimum, the run must fail fast with
// ErrBelowThreshold (which also satisfies errors.Is(err, ErrStalled)),
// keep the completed iterations as a partial Result, fire OnRunEnd with
// it, and emit a KindDegraded fault event — instead of wedging the
// transport until its timeout.
func TestScenarioBelowThresholdDegrades(t *testing.T) {
	const crashAt = 2
	liveOpts := func(tcp bool) LiveOptions {
		return LiveOptions{TimeScale: 1e-6, Timeout: 30 * time.Second, TCP: tcp}
	}
	runtimes := []engineRuntime{
		{"sim", RunSim},
		{"live", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(false)) }},
		{"tcp", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(true)) }},
	}
	for _, rt := range runtimes {
		t.Run(rt.name, func(t *testing.T) {
			cfg, _ := buildRun(t, "bcc", 8, 8, 4, 6, 402, Zero{})
			// Crash all but one worker at crashAt: bcc with 2 batches cannot
			// possibly decode from a single worker.
			plan := &faults.Plan{N: 8}
			for w := 0; w < 7; w++ {
				plan.Crashes = append(plan.Crashes, faults.Crash{Worker: w, At: crashAt})
			}
			cfg.Faults = plan
			degradedSeen := false
			var end *Result
			cfg.Observer = ObserverFuncs{
				Fault:  func(ev faults.Event) { degradedSeen = degradedSeen || ev.Kind == faults.KindDegraded },
				RunEnd: func(r *Result) { end = r },
			}
			start := time.Now()
			res, err := rt.run(cfg)
			if !errors.Is(err, ErrBelowThreshold) {
				t.Fatalf("err = %v, want ErrBelowThreshold", err)
			}
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("ErrBelowThreshold must wrap ErrStalled; err = %v", err)
			}
			if res == nil || len(res.Iters) != crashAt {
				t.Fatalf("partial result has %v iterations, want %d", res, crashAt)
			}
			if end != res {
				t.Fatalf("OnRunEnd saw %p, run returned %p", end, res)
			}
			if !degradedSeen {
				t.Fatal("no KindDegraded fault event reached the observer")
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("degradation was not fail-fast: took %v", elapsed)
			}
		})
	}
}

// TestScenarioStallEmitsDegradedSignal covers the other degradation arm: a
// stall the reachable-worker count cannot predict. Every holder of one bcc
// batch is dead while enough workers stay reachable to pass the
// MinResponders check, so the iteration runs, every reachable worker
// reports, and the decoder still lacks that batch: the stall is detected
// after the fact and still signals the observer with KindDegraded before
// returning ErrStalled.
func TestScenarioStallEmitsDegradedSignal(t *testing.T) {
	const n = 12
	cfg, _ := buildRun(t, "bcc", 8, n, 4, 5, 403, Zero{})
	// Kill the holders of the least-replicated batch (keyed by its first
	// unit).
	holders := map[int][]int{}
	for w, a := range cfg.Plan.Assignments() {
		holders[a[0]] = append(holders[a[0]], w)
	}
	var victims []int
	for _, ws := range holders {
		if victims == nil || len(ws) < len(victims) {
			victims = ws
		}
	}
	cfg.Faults = crashPlan(n, victims...)
	if reach, need := n-len(victims), coding.MinResponders(cfg.Plan); reach < need {
		t.Fatalf("placement leaves %d reachable workers, below MinResponders %d: no stall to observe", reach, need)
	}
	degradedSeen := false
	cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) {
		degradedSeen = degradedSeen || ev.Kind == faults.KindDegraded
	}}
	_, err := RunSim(cfg)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("expected ErrStalled, got %v", err)
	}
	if errors.Is(err, ErrBelowThreshold) {
		t.Fatalf("an uncovered batch is invisible to the reachable count; err %v must not claim fail-fast", err)
	}
	if !degradedSeen {
		t.Fatal("stall did not emit a KindDegraded event")
	}
}

// TestScenarioPlanWorkerCountValidated pins Config.validate's plan/cluster
// size agreement check.
func TestScenarioPlanWorkerCountValidated(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 4, 2, 404, Zero{})
	cfg.Faults = &faults.Plan{N: 4}
	_, err := RunSim(cfg)
	if err == nil || !strings.Contains(err.Error(), "fault plan built for 4 workers") {
		t.Fatalf("mismatched plan size accepted: %v", err)
	}
	cfg.Faults = &faults.Plan{N: 8, Crashes: []faults.Crash{{Worker: 9, At: 0}}}
	if _, err := RunSim(cfg); err == nil {
		t.Fatal("invalid plan rule accepted")
	}
}

// TestScenarioCrashedWorkerComputeExcluded checks the worker-state
// accounting end to end on the sim runtime: while worker 0 (the only
// stagger-1 worker) is crashed, the realized recovery set shifts and its
// compute time never enters the iteration stats.
func TestScenarioCrashedWorkerComputeExcluded(t *testing.T) {
	mk := func(plan *faults.Plan) *Result {
		cfg, _ := buildRun(t, "bcc", 8, 8, 4, 4, 405, staggered(8, 16))
		cfg.Faults = plan
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(nil)
	crashed := mk(&faults.Plan{N: 8, Crashes: []faults.Crash{{Worker: 0, At: 1, RestartAfter: 2}}})
	for i := 1; i < 3; i++ {
		// Worker 0 arrives first in the baseline (stagger 1); with it down,
		// the decode prefix must shift to later (slower) arrivals.
		if crashed.Iters[i].Wall <= base.Iters[i].Wall {
			t.Fatalf("iter %d: crashed-run wall %v not above baseline %v",
				i, crashed.Iters[i].Wall, base.Iters[i].Wall)
		}
	}
	for _, i := range []int{0, 3} {
		a, b := crashed.Iters[i], base.Iters[i]
		// NaN Loss sentinels compare unequal; neutralize them first.
		a.Loss, b.Loss = 0, 0
		if a != b {
			t.Fatalf("iter %d (worker 0 up): stats %+v differ from baseline %+v",
				i, crashed.Iters[i], base.Iters[i])
		}
	}
}

// TestScenarioSpecPlumbing drives a named scenario through the public
// Spec/Job path on the sim runtime and checks it matches the directly
// configured cluster run — the core wiring test.
func TestScenarioSpecPlumbing(t *testing.T) {
	// Direct: build the same plan core would derive.
	plan, err := faults.Scenario("rolling-restart", 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := buildRun(t, "bcc", 8, 8, 4, 6, 406, Zero{})
	cfg.Faults = plan
	if _, err := RunSim(cfg); err != nil {
		t.Fatalf("rolling-restart under zero latency: %v", err)
	}
	// The event stream must be identical for a re-run (determinism through
	// the whole Config path).
	collect := func() []string {
		cfg, _ := buildRun(t, "bcc", 8, 8, 4, 6, 406, Zero{})
		cfg.Faults = plan
		var evs []string
		cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) { evs = append(evs, ev.String()) }}
		if _, err := RunSim(cfg); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b := collect(), collect()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("fault traces differ between identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("rolling-restart emitted no events in 6 iterations")
	}
}
