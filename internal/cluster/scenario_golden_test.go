package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bcc/internal/faults"
	"bcc/internal/trace"
)

// The golden-trace regression test freezes the sim runtime's full event
// trace — fault events, worker arrival order with counted marks, decode
// points and gradient norms — for every named scenario. Engine or
// transport refactors that silently reorder arrivals, move a decode point
// or drop a fault event change these files and fail the diff.
//
// Regenerate after an INTENTIONAL semantic change with:
//
//	go test ./internal/cluster -run TestScenarioGoldenTraces -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the scenario golden trace files")

// goldenTrace renders one scenario's sim run as a stable text trace.
func goldenTrace(t *testing.T, name string) string {
	t.Helper()
	plan, err := faults.Scenario(name, scenarioN, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := buildRun(t, "bcc", scenarioM, scenarioN, scenarioR, scenarioIters, scenarioSeed,
		staggered(scenarioN, 4*scenarioR))
	cfg.Faults = plan
	rec := &trace.Recorder{}
	cfg.Trace = rec
	perIter := make([][]string, scenarioIters)
	cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) {
		perIter[ev.Iter] = append(perIter[ev.Iter], ev.String())
	}}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s: bcc m=%d n=%d r=%d seed=%d fault-seed=9\n",
		name, scenarioM, scenarioN, scenarioR, scenarioSeed)
	for i, st := range res.Iters {
		fmt.Fprintf(&sb, "iter %d\n", i)
		if len(perIter[i]) > 0 {
			fmt.Fprintf(&sb, "  faults: %s\n", strings.Join(perIter[i], "; "))
		}
		var arrivals []string
		for _, span := range rec.Iterations[i].Spans {
			mark := ""
			if span.Counted {
				mark = "*"
			}
			arrivals = append(arrivals, fmt.Sprintf("w%d%s@%s", span.Worker, mark,
				strconv.FormatFloat(span.Arrive, 'g', -1, 64)))
		}
		fmt.Fprintf(&sb, "  arrivals: %s\n", strings.Join(arrivals, " "))
		fmt.Fprintf(&sb, "  decode: wall=%s K=%d units=%s |g|=%s\n",
			strconv.FormatFloat(st.Wall, 'g', -1, 64), st.WorkersHeard,
			strconv.FormatFloat(st.Units, 'g', -1, 64),
			strconv.FormatFloat(st.GradNorm, 'g', -1, 64))
	}
	return sb.String()
}

// TestScenarioGoldenTraces diffs every named scenario's sim trace against
// its checked-in golden file.
func TestScenarioGoldenTraces(t *testing.T) {
	for _, name := range faults.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			got := goldenTrace(t, name)
			path := filepath.Join("testdata", "scenario_"+name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
