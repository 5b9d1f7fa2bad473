package cluster

import (
	"strings"
	"testing"

	"bcc/internal/coding"
	"bcc/internal/faults"
	"bcc/internal/vecmath"
)

// The nested-adaptive axis of the conformance matrix: a run whose redundancy
// level is re-tuned mid-flight by the AIMD controller must stay bit-identical
// across the sim, live and tcp runtimes. The
// controller reads only the fault plan's pure per-iteration schedule (never
// clocks), so the level trajectory is a pure function of (seed, scenario) and
// every runtime must realize the same one.

// adaptiveSwitchPlan is a fault schedule engineered to force level switches
// both ways within 8 iterations: the tail workers are slow for iterations
// 0-1 (holding the level up), quiet through 2-4 (the AIMD window expires
// twice, stepping the level down), then slow again at 5-6 (an immediate
// additive jump back up). Factors 6 and 8 on the two highest staggers keep
// every slowed arrival distinct from every unslowed one, so arrival order
// stays deterministic on the live runtimes.
func adaptiveSwitchPlan() *faults.Plan {
	return &faults.Plan{N: scenarioN,
		Slowdowns: []faults.Slowdown{
			{Worker: 6, From: 0, Every: 1000, Span: 2, Factor: 8},
			{Worker: 7, From: 0, Every: 1000, Span: 2, Factor: 6},
			{Worker: 6, From: 5, Every: 1000, Span: 2, Factor: 8},
			{Worker: 7, From: 5, Every: 1000, Span: 2, Factor: 6},
		},
	}
}

// runAdaptive executes one nested-adaptive run: the scenario topology with
// the "nested" family instead of fixed bcc, the AIMD controller on the
// engine, and the given fault plan. run is nil for the sim reference.
func runAdaptive(t *testing.T, plan *faults.Plan, iters int, run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	cfg, _ := buildRun(t, "nested", scenarioM, scenarioN, scenarioR, iters, scenarioSeed,
		staggered(scenarioN, 4*scenarioR))
	cfg.Faults = plan
	cfg.Controller = &AIMDController{Window: 2}
	var events []string
	cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) {
		events = append(events, ev.String())
	}}
	if run == nil {
		run = RunSim
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("nested-adaptive run: %v", err)
	}
	return scenarioRun{res: res, events: events}
}

// TestScenarioNestedAdaptiveConformance pins the mid-run level switch across
// runtimes: under the engineered switch schedule the sim reference must
// actually re-tune (both down and back up), and live and tcp must
// reproduce the identical per-iteration level trajectory, recovery stats,
// bit-identical weights and fault-event trace.
func TestScenarioNestedAdaptiveConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	const iters = 8
	// One cell, labelled like the scenario matrix's (see scenario_test.go).
	t.Run("barrier", func(t *testing.T) {
		ref := runAdaptive(t, adaptiveSwitchPlan(), iters, nil)
		if len(ref.res.Iters) != iters {
			t.Fatalf("sim completed %d iterations, want %d", len(ref.res.Iters), iters)
		}
		if ref.res.LevelSwitches < 2 {
			t.Fatalf("switch schedule produced only %d level switches; the adaptive axis is not exercised", ref.res.LevelSwitches)
		}
		down, up := false, false
		for i := 1; i < len(ref.res.Iters); i++ {
			prev, cur := ref.res.Iters[i-1].Level, ref.res.Iters[i].Level
			down = down || cur < prev
			up = up || cur > prev
		}
		if !down || !up {
			t.Fatalf("level trajectory %v never switched both ways", levelsOf(ref.res))
		}
		for _, rt := range scenarioRuntimes() {
			got := runAdaptive(t, adaptiveSwitchPlan(), iters, rt.run)
			compareScenarioRuns(t, rt.name, got, ref, false)
			if got.res.LevelSwitches != ref.res.LevelSwitches {
				t.Errorf("%s counted %d level switches, sim %d", rt.name, got.res.LevelSwitches, ref.res.LevelSwitches)
			}
		}
	})
}

// TestScenarioNestedAdaptiveLibrary runs the nested-adaptive stack through a
// named library scenario on every runtime — the same conformance checks, with
// the scenario generator (rather than a hand-built plan) driving telemetry.
func TestScenarioNestedAdaptiveLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	plan, err := faults.Scenario("flaky-tail", scenarioN, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref := runAdaptive(t, plan, scenarioIters, nil)
	for _, rt := range scenarioRuntimes() {
		compareScenarioRuns(t, rt.name, runAdaptive(t, plan, scenarioIters, rt.run), ref, false)
	}
}

// TestNestedAdaptiveDeterministicRerun pins that two identical adaptive sim
// runs realize the same level trajectory and weights — the controller holds
// no hidden clock or map-order dependence.
func TestNestedAdaptiveDeterministicRerun(t *testing.T) {
	a := runAdaptive(t, adaptiveSwitchPlan(), 8, nil)
	b := runAdaptive(t, adaptiveSwitchPlan(), 8, nil)
	la, lb := levelsOf(a.res), levelsOf(b.res)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("level trajectories differ between identical runs:\n%v\n%v", la, lb)
		}
	}
	if d := vecmath.MaxAbsDiff(a.res.FinalW, b.res.FinalW); d != 0 {
		t.Fatalf("final weights differ between identical runs by %v", d)
	}
	if len(a.events) == 0 || strings.Join(a.events, "\n") != strings.Join(b.events, "\n") {
		t.Fatalf("fault traces differ or are empty:\n%v\n%v", a.events, b.events)
	}
}

func levelsOf(res *Result) []int {
	ls := make([]int, len(res.Iters))
	for i, it := range res.Iters {
		ls[i] = it.Level
	}
	return ls
}

// TestSimZeroAllocsWithController pins that the adaptive control plane —
// telemetry gathering, the AIMD decision, SetLevel, the per-level decoder
// snapshot — adds ZERO steady-state allocations per iteration on top of the
// nested data plane, measured by differencing two run lengths over the same
// deterministic fault schedule (the engine hook runs every iteration, so a
// per-iteration allocation anywhere in it would show).
func TestSimZeroAllocsWithController(t *testing.T) {
	const shortIters, longIters = 2, 10
	plan := &faults.Plan{N: 8, Seed: 6,
		Crashes:   []faults.Crash{{Worker: 0, At: 1, RestartAfter: 2}},
		Slowdowns: []faults.Slowdown{{Worker: 3, From: 0, Every: 3, Span: 1, Factor: 4}},
	}
	mk := func(iters int) (*Config, *simTransport) {
		cfg, _ := buildRun(t, "nested", 8, 8, 4, iters, 81, Zero{})
		cfg.Faults = plan
		return cfg, newSimTransport(cfg)
	}
	cfgShort, trShort := mk(shortIters)
	cfgLong, trLong := mk(longIters)
	run := func(cfg *Config, tr *simTransport) {
		// A fresh controller and a reset level per run keep every repeat's
		// trajectory identical; both are per-run fixed costs that cancel in
		// the differencing.
		cfg.Plan.(coding.Retunable).SetLevel(4)
		cfg.Controller = &AIMDController{Window: 2}
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
		t.Fatalf("adaptive iterations allocate: %.1f allocs for %d iterations vs %.1f for %d (%.2f allocs/iter, want 0)",
			long, longIters, short, shortIters, perIter)
	}
}
