//go:build goexperiment.synctest

package cluster

import (
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"bcc/internal/faults"
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
// Plain go test skips this file; the real-time matrices in scenario_test.go
// and sharded_test.go stay the tier-1 guard.

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

// TestSynctestShardedConformance: the sharded master on live, M ∈ {2, 4},
// against the unsharded sim, timings included — the shards decode between
// arrivals, so they cost no virtual time.
func TestSynctestShardedConformance(t *testing.T) {
	comm := CommOptions{Chunk: shardedChunk}
	for _, name := range faults.Names() {
		for _, m := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/M=%d", name, m), func(t *testing.T) {
				ref := runScenarioCfg(t, name, comm, nil, nil)
				got := runScenarioCfg(t, name, comm, shardedMut(m), synctestLive)
				compareScenarioRuns(t, "live", got, ref, true)
				checkShardStats(t, "live", got.res, m, shardedChunk)
			})
		}
	}
}
