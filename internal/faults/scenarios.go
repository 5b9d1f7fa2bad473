package faults

import (
	"fmt"
	"sort"
	"strings"
)

// The named scenario library: canonical fault regimes the conformance suite
// (and the -faults flag of bcctrain) runs by name. Each builder takes the
// cluster size n and a seed and returns a Plan; two processes building the
// same (name, n, seed) triple — a service daemon and its out-of-process
// fleet workers, say — hold identical schedules.
//
// The scenarios are sized relative to n so they scale from unit-test
// clusters to large ones, and they are deliberately survivable for
// redundant schemes (a bounded fraction of the cluster is affected at any
// instant): the point is to perturb the order statistics the paper's
// analysis rests on, not to make every run stall.

// scenarioBuilder constructs a named scenario's plan for n workers.
type scenarioBuilder struct {
	doc   string
	build func(n int, seed uint64) *Plan
}

var scenarios = map[string]scenarioBuilder{
	// steady is the no-fault baseline; conformance runs use it to pin that
	// the fault machinery itself perturbs nothing when idle.
	"steady": {
		doc:   "no faults (baseline)",
		build: func(n int, seed uint64) *Plan { return &Plan{N: n, Seed: seed} },
	},
	// slow-decile permanently slows the top decile of worker indices — the
	// paper's persistent-straggler regime.
	"slow-decile": {
		doc: "the last ceil(n/10) workers are permanently 6x slower",
		build: func(n int, seed uint64) *Plan {
			p := &Plan{N: n, Seed: seed}
			k := (n + 9) / 10
			for w := n - k; w < n; w++ {
				p.Slowdowns = append(p.Slowdowns, Slowdown{Worker: w, From: 0, Factor: 6})
			}
			return p
		},
	},
	// flaky-tail gives the last quarter of the cluster recurring slow
	// windows with staggered phases: at any iteration a subset of the tail
	// is slow, and the subset rotates — transient stragglers.
	"flaky-tail": {
		doc: "the last ceil(n/4) workers are 8x slower in recurring 2-of-5 iteration windows",
		build: func(n int, seed uint64) *Plan {
			p := &Plan{N: n, Seed: seed}
			k := (n + 3) / 4
			for i := 0; i < k; i++ {
				w := n - k + i
				p.Slowdowns = append(p.Slowdowns, Slowdown{
					Worker: w, From: i % 5, Every: 5, Span: 2, Factor: 8,
				})
			}
			return p
		},
	},
	// rolling-restart crashes one worker at a time, each down for two
	// iterations, rolling through the cluster — the software-deploy regime.
	"rolling-restart": {
		doc: "workers crash one at a time for 2 iterations each, rolling through the cluster",
		build: func(n int, seed uint64) *Plan {
			p := &Plan{N: n, Seed: seed}
			for w := 0; w < n; w++ {
				p.Crashes = append(p.Crashes, Crash{Worker: w, At: 1 + 2*w, RestartAfter: 2})
			}
			return p
		},
	},
	// partition makes the first quarter of the worker range unreachable
	// from the master for iterations [2, 5).
	"partition": {
		doc: "workers [0, ceil(n/4)) are unreachable from the master during iterations [2, 5)",
		build: func(n int, seed uint64) *Plan {
			hi := (n + 3) / 4
			if hi < 1 {
				hi = 1
			}
			return &Plan{N: n, Seed: seed, Partitions: []Partition{{From: 2, To: 5, Lo: 0, Hi: hi}}}
		},
	},
	// burst-drop injects correlated loss: bursts start with probability
	// 0.25 per iteration, last 2 iterations, and eat half of the cluster's
	// transmissions while active.
	"burst-drop": {
		doc: "correlated loss bursts (p=0.25 per iteration, length 2) dropping 50% of transmissions",
		build: func(n int, seed uint64) *Plan {
			return &Plan{N: n, Seed: seed, Bursts: &DropBursts{StartProb: 0.25, Length: 2, Frac: 0.5}}
		},
	},
}

// Names lists the scenario library, sorted.
func Names() []string {
	out := make([]string, 0, len(scenarios))
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Known reports whether name is a registered scenario.
func Known(name string) bool {
	_, ok := scenarios[name]
	return ok
}

// Describe returns the one-line description of a named scenario ("" for
// unknown names).
func Describe(name string) string { return scenarios[name].doc }

// Scenario builds the named scenario's fault plan for an n-worker cluster.
// The schedule is fully determined by (name, n, seed), so independent
// processes agree on it.
func Scenario(name string, n int, seed uint64) (*Plan, error) {
	b, ok := scenarios[name]
	if !ok {
		return nil, fmt.Errorf("faults: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if n <= 0 {
		return nil, fmt.Errorf("faults: scenario %q needs a positive worker count, got %d", name, n)
	}
	p := b.build(n, seed)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faults: scenario %q: %w", name, err)
	}
	return p, nil
}
