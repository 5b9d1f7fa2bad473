//go:build goexperiment.synctest

package cluster

import (
	"math"
	"testing"
	"testing/synctest"
	"time"

	"bcc/internal/rngutil"
)

// The virtual-time conformance suite runs the live runtime inside a
// testing/synctest bubble, whose clock only moves when every goroutine in it
// is durably blocked. Every latency sleep, the iteration deadline and the
// pipe traffic between them then happen in virtual time at TimeScale 1, so
// arrival order is exactly the latency model's and the run must equal the
// sim's whole-struct — Wall, Compute and Comm included — with no scheduler
// jitter to allow for. It needs the experiment at build time:
//
//	GOEXPERIMENT=synctest go test -run Synctest ./internal/cluster/
//
// Plain go test skips this file; the real-time matrix in scenario_test.go
// stays the tier-1 guard.

// synctestLive runs cfg on the live runtime inside a synctest bubble.
func synctestLive(cfg *Config) (res *Result, err error) {
	synctest.Run(func() {
		res, err = RunLive(cfg, LiveOptions{TimeScale: 1, Timeout: time.Hour})
	})
	return res, err
}

// TestSynctestScenarioConformance: every cell of TestScenarioConformance
// under every payload codec, live against sim, timings included.
func TestSynctestScenarioConformance(t *testing.T) {
	for _, c := range scenarioCells(t) {
		for _, payload := range []string{"raw64", "f32", "topk"} {
			t.Run(c.name+"/"+payload, func(t *testing.T) {
				comm := CommOptions{Payload: payload}
				ref := runPlanCfg(t, c.plan, comm, nil, nil)
				if c.first != "" && (len(ref.events) == 0 || ref.events[0] != c.first) {
					t.Fatalf("sim fault trace %v, want it to open with %q", ref.events, c.first)
				}
				compareScenarioRuns(t, "live", runPlanCfg(t, c.plan, comm, nil, synctestLive), ref, true)
			})
		}
	}
}

// TestSynctestStatefulLatency: live against sim under a stateful latency
// model, a shift-exponential with one seeded stream per worker, whose every
// draw depends on the ones before it: the two runtimes must make the same
// draws in the same order. Each run gets a fresh model with the same seed.
//   - drop-crash0: the conformance cell that loses transmissions, which
//     both runtimes draw for;
//   - paper-size: bcc at n = m = 50, r = 10 with the EC2 profile
//     (experiments.EC2Latency's parameters at 4 points per unit) and its
//     master ingress cost, for 200 iterations.
//
// Wall and Comm agree within 1 ns per counted arrival, since live time is
// whole nanoseconds; every other field is compared whole-struct.
func TestSynctestStatefulLatency(t *testing.T) {
	shiftExp := func(n int, p ShiftExpParams) Latency {
		lat, err := NewShiftExp(n, []ShiftExpParams{p}, rngutil.New(61))
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	t.Run("drop-crash0", func(t *testing.T) {
		c := scenarioCells(t)[0]
		run := func(run func(*Config) (*Result, error)) scenarioRun {
			return runPlanCfg(t, c.plan, CommOptions{}, func(cfg *Config) {
				cfg.Latency = shiftExp(scenarioN, ShiftExpParams{
					ComputeShift: 1e-3, ComputeMu: 50, CommShift: 5e-3, CommMu: 12.5,
				})
			}, run)
		}
		ref := run(nil)
		compareNanoTimed(t, run(synctestLive), ref)
	})
	t.Run("paper-size", func(t *testing.T) {
		const ppu = 4 // buildRun's points per unit
		run := func(run func(*Config) (*Result, error)) scenarioRun {
			cfg, _ := buildRun(t, "bcc", 50, 50, 10, 200, 62, shiftExp(50, ShiftExpParams{
				ComputeShift: 8e-4 / ppu, ComputeMu: ppu / 4e-4, CommShift: 5e-3, CommMu: 1 / 8e-2,
			}))
			cfg.IngressPerUnit = 5.5e-3
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return scenarioRun{res: res}
		}
		ref := run(RunSim)
		compareNanoTimed(t, run(synctestLive), ref)
	})
}

// compareNanoTimed is compareScenarioRuns in virtual time for a live run
// whose sleeps were truncated to whole nanoseconds: each iteration's Wall
// and Comm must be within 1 ns per counted arrival of the reference, and
// every other observable equal.
func compareNanoTimed(t *testing.T, got, ref scenarioRun) {
	t.Helper()
	for i := range min(len(got.res.Iters), len(ref.res.Iters)) {
		g, want := &got.res.Iters[i], ref.res.Iters[i]
		tol := 1e-9 * float64(want.WorkersHeard)
		if math.Abs(g.Wall-want.Wall) > tol || math.Abs(g.Comm-want.Comm) > tol {
			t.Errorf("live iter %d: wall %v comm %v, sim %v and %v: more than %v apart",
				i, g.Wall, g.Comm, want.Wall, want.Comm, tol)
		}
		g.Wall, g.Comm = want.Wall, want.Comm
	}
	compareScenarioRuns(t, "live", got, ref, true)
}
