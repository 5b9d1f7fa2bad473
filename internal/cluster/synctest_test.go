//go:build goexperiment.synctest

package cluster

import (
	"testing"
	"testing/synctest"
	"time"
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
