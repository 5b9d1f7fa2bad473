package trace

import (
	"strings"
	"testing"
)

func sampleIteration() Iteration {
	return Iteration{
		Iter:       3,
		DecodeTime: 10,
		Spans: []WorkerSpan{
			{Worker: 0, ComputeEnd: 3, Arrive: 5, DrainStart: 5, DrainEnd: 6, Counted: true, Units: 1},
			{Worker: 1, ComputeEnd: 4, Arrive: 8, DrainStart: 8, DrainEnd: 10, Counted: true, Units: 1},
			{Worker: 2, ComputeEnd: 6, Arrive: 14, DrainStart: 14, DrainEnd: 15, Counted: false, Units: 1},
		},
	}
}

func TestRecorderAdd(t *testing.T) {
	var r Recorder
	if r.Len() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	r.Add(sampleIteration())
	if r.Len() != 1 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestGanttBasics(t *testing.T) {
	var r Recorder
	r.Add(sampleIteration())
	out, err := r.Gantt(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 workers
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "iteration 3") {
		t.Fatalf("header: %q", lines[0])
	}
	// Counted workers sorted first and starred.
	if !strings.HasPrefix(lines[1], "w000*") || !strings.HasPrefix(lines[2], "w001*") {
		t.Fatalf("counted workers not first:\n%s", out)
	}
	if !strings.HasPrefix(lines[3], "w002 ") {
		t.Fatalf("straggler row wrong:\n%s", out)
	}
	// Phases present.
	for _, ch := range []string{"c", "u", "D", "|"} {
		if !strings.Contains(out, ch) {
			t.Fatalf("missing phase %q:\n%s", ch, out)
		}
	}
}

func TestGanttQueueSymbol(t *testing.T) {
	var r Recorder
	r.Add(Iteration{
		Iter:       0,
		DecodeTime: 10,
		Spans: []WorkerSpan{
			{Worker: 0, ComputeEnd: 2, Arrive: 3, DrainStart: 6, DrainEnd: 10, Counted: true, Units: 1},
		},
	})
	out, err := r.Gantt(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "q") {
		t.Fatalf("queued phase not rendered:\n%s", out)
	}
}

func TestGanttErrors(t *testing.T) {
	var r Recorder
	if _, err := r.Gantt(0, 40); err == nil {
		t.Fatal("empty recorder accepted")
	}
	r.Add(Iteration{Iter: 0, DecodeTime: 1})
	if _, err := r.Gantt(0, 40); err == nil {
		t.Fatal("iteration without spans accepted")
	}
	if _, err := r.Gantt(5, 40); err == nil {
		t.Fatal("out-of-range iteration accepted")
	}
}

func TestGanttMinWidth(t *testing.T) {
	var r Recorder
	r.Add(sampleIteration())
	out, err := r.Gantt(0, 1) // clamped to 20
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Row = "wNNN* " + 20 chars.
	if got := len(lines[1]); got != 6+20 {
		t.Fatalf("row width %d: %q", got, lines[1])
	}
}

func TestSummary(t *testing.T) {
	var r Recorder
	r.Add(sampleIteration())
	s := r.Summary()
	if !strings.Contains(s, "counted 2/3") {
		t.Fatalf("summary: %q", s)
	}
	// Straggler gap = slowest arrival (14) - last counted arrival (8) = 6.
	if !strings.Contains(s, "straggler gap 6") {
		t.Fatalf("summary: %q", s)
	}
}
