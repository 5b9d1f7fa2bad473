package faults

import (
	"math"
	"strings"
	"testing"
)

// TestNilPlanIsNoFaults pins the nil contract every runtime relies on: a
// nil *Plan keeps all workers active, unslowed and reachable.
func TestNilPlanIsNoFaults(t *testing.T) {
	var p *Plan
	for w := 0; w < 4; w++ {
		for iter := 0; iter < 4; iter++ {
			if !p.Active(w, iter) || !p.Contributing(w, iter) {
				t.Fatalf("nil plan faulted worker %d at iter %d", w, iter)
			}
			if f := p.SlowFactor(w, iter); f != 1 {
				t.Fatalf("nil plan slow factor %v", f)
			}
			if p.MasterDrop(w, iter) {
				t.Fatalf("nil plan dropped worker %d at iter %d", w, iter)
			}
		}
	}
	p.EventsAt(0, func(Event) { t.Fatal("nil plan emitted an event") })
}

// TestCrashAndRestartWindows checks the worker-down interval [At,
// At+RestartAfter) and permanence without a restart.
func TestCrashAndRestartWindows(t *testing.T) {
	p := &Plan{N: 3, Crashes: []Crash{
		{Worker: 0, At: 2, RestartAfter: 3},
		{Worker: 1, At: 4}, // permanent
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	wantDown0 := map[int]bool{2: true, 3: true, 4: true}
	for iter := 0; iter < 10; iter++ {
		if got := !p.Active(0, iter); got != wantDown0[iter] {
			t.Fatalf("worker 0 down=%v at iter %d, want %v", got, iter, wantDown0[iter])
		}
		if got := !p.Active(1, iter); got != (iter >= 4) {
			t.Fatalf("worker 1 down=%v at iter %d", got, iter)
		}
		if !p.Active(2, iter) {
			t.Fatalf("untargeted worker 2 down at iter %d", iter)
		}
	}
}

// TestSlowdownWindows checks one-shot and periodic windows and factor
// stacking.
func TestSlowdownWindows(t *testing.T) {
	p := &Plan{N: 2, Slowdowns: []Slowdown{
		{Worker: 0, From: 1, To: 3, Factor: 4},
		{Worker: 0, From: 0, Factor: 2}, // open-ended, stacks inside [1,3)
		{Worker: 1, From: 1, Every: 4, Span: 2, Factor: 8},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want0 := map[int]float64{0: 2, 1: 8, 2: 8, 3: 2, 4: 2}
	for iter, want := range want0 {
		if got := p.SlowFactor(0, iter); got != want {
			t.Fatalf("worker 0 factor %v at iter %d, want %v", got, iter, want)
		}
	}
	// Periodic: slow at (iter-1) mod 4 in {0,1} -> iters 1,2, 5,6, 9,10...
	for iter := 0; iter < 12; iter++ {
		slow := iter >= 1 && (iter-1)%4 < 2
		want := 1.0
		if slow {
			want = 8
		}
		if got := p.SlowFactor(1, iter); got != want {
			t.Fatalf("worker 1 factor %v at iter %d, want %v", got, iter, want)
		}
	}
}

// TestPartitionWindow checks the master-side range drop.
func TestPartitionWindow(t *testing.T) {
	p := &Plan{N: 6, Partitions: []Partition{{From: 2, To: 4, Lo: 1, Hi: 3}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6; w++ {
		for iter := 0; iter < 6; iter++ {
			want := iter >= 2 && iter < 4 && w >= 1 && w < 3
			if got := p.MasterDrop(w, iter); got != want {
				t.Fatalf("MasterDrop(%d,%d)=%v, want %v", w, iter, got, want)
			}
			// Partitioned workers stay active (they keep computing).
			if !p.Active(w, iter) {
				t.Fatalf("partition crashed worker %d", w)
			}
			if p.Contributing(w, iter) == want {
				t.Fatalf("Contributing(%d,%d) disagrees with MasterDrop", w, iter)
			}
		}
	}
}

// TestBurstsAreDeterministicAndBursty checks that burst drops are a pure
// function of the seed (identical across repeated queries, in any order)
// and only occur inside burst windows.
func TestBurstsAreDeterministicAndBursty(t *testing.T) {
	mk := func() *Plan {
		return &Plan{N: 8, Seed: 42, Bursts: &DropBursts{StartProb: 0.3, Length: 2, Frac: 0.7}}
	}
	a, b := mk(), mk()
	const iters = 200
	drops := 0
	for iter := 0; iter < iters; iter++ {
		for w := 0; w < 8; w++ {
			if a.MasterDrop(w, iter) != b.MasterDrop(w, iter) {
				t.Fatalf("drop decision (%d,%d) not deterministic", w, iter)
			}
			if a.MasterDrop(w, iter) {
				drops++
				if !a.burstActive(iter) {
					t.Fatalf("drop outside a burst at iter %d", iter)
				}
			}
		}
	}
	if drops == 0 {
		t.Fatal("no drops in 200 iterations at StartProb 0.3")
	}
	// Query again in reverse order: pure functions must agree.
	for iter := iters - 1; iter >= 0; iter-- {
		for w := 7; w >= 0; w-- {
			if a.MasterDrop(w, iter) != b.MasterDrop(w, iter) {
				t.Fatal("reverse-order query changed a drop decision")
			}
		}
	}
	// A different seed must schedule a different pattern.
	c := &Plan{N: 8, Seed: 43, Bursts: a.Bursts}
	same := true
	for iter := 0; iter < iters && same; iter++ {
		for w := 0; w < 8; w++ {
			if a.MasterDrop(w, iter) != c.MasterDrop(w, iter) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 schedule identical drop patterns")
	}
}

// TestDropIsIIDAndDeterministic checks the i.i.d. Drop rule: the same
// answer for the same (worker, iteration) on every call, a loss frequency
// inside a binomial confidence interval around Drop, no events, and draws
// independent of the burst stream under the same seed.
func TestDropIsIIDAndDeterministic(t *testing.T) {
	const p, n, iters = 0.1, 50, 2000
	drop := &Plan{N: n, Seed: 42, Drop: p}
	if err := drop.Validate(); err != nil {
		t.Fatal(err)
	}
	bursts := &Plan{N: n, Seed: 42, Bursts: &DropBursts{StartProb: 1, Length: 1, Frac: 0.5}}
	var lost, burstLost, both int
	for iter := 0; iter < iters; iter++ {
		for w := 0; w < n; w++ {
			d := drop.MasterDrop(w, iter)
			if d != drop.MasterDrop(w, iter) {
				t.Fatalf("drop decision (%d,%d) changed between calls", w, iter)
			}
			if !drop.Active(w, iter) || drop.Contributing(w, iter) == d {
				t.Fatalf("drop at (%d,%d): Active/Contributing disagree with MasterDrop", w, iter)
			}
			b := bursts.MasterDrop(w, iter)
			if d {
				lost++
			}
			if b {
				burstLost++
			}
			if d && b {
				both++
			}
		}
	}
	// 4.5 standard deviations: the draws are seeded, so this is a fixed
	// outcome, not a flaky bound.
	within := func(count, draws int, q float64) bool {
		mean := float64(draws) * q
		return math.Abs(float64(count)-mean) <= 4.5*math.Sqrt(mean*(1-q))
	}
	total := n * iters
	if !within(lost, total, p) {
		t.Fatalf("%d drops in %d draws, outside the binomial CI around p=%v", lost, total, p)
	}
	// Independence: among the transmissions the burst stream loses, the
	// i.i.d. stream still loses a fraction p.
	if !within(both, burstLost, p) {
		t.Fatalf("%d of %d burst-lost transmissions also drop, outside the binomial CI around p=%v", both, burstLost, p)
	}
	if evs := drop.Events(iters); len(evs) != 0 {
		t.Fatalf("Drop emitted events: %v", evs[:1])
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if err := (&Plan{N: 2, Drop: bad}).Validate(); err == nil {
			t.Fatalf("Drop %v validated", bad)
		}
	}
}

// TestEventsTrace checks the deterministic event trace: edges appear
// exactly at window boundaries, in the documented order.
func TestEventsTrace(t *testing.T) {
	p := &Plan{N: 4,
		Crashes:    []Crash{{Worker: 2, At: 1, RestartAfter: 2}},
		Slowdowns:  []Slowdown{{Worker: 3, From: 1, To: 3, Factor: 5}},
		Partitions: []Partition{{From: 2, To: 3, Lo: 0, Hi: 2}},
	}
	var got []string
	for _, ev := range p.Events(5) {
		got = append(got, ev.String())
	}
	want := []string{
		"iter=1 crash w2",
		"iter=1 slow-start w3 x5",
		"iter=2 partition-start w[0,2)",
		"iter=3 restart w2",
		"iter=3 slow-end w3",
		"iter=3 partition-end w[0,2)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("event trace:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestValidateRejectsBadRules spot-checks each rule family's validation.
func TestValidateRejectsBadRules(t *testing.T) {
	bad := []*Plan{
		{N: 0},
		{N: 2, Crashes: []Crash{{Worker: 2, At: 0}}},
		{N: 2, Crashes: []Crash{{Worker: 0, At: -1}}},
		{N: 2, Slowdowns: []Slowdown{{Worker: 0, Factor: 0}}},
		{N: 2, Slowdowns: []Slowdown{{Worker: 0, Factor: 2, Every: 3, Span: 0}}},
		{N: 2, Slowdowns: []Slowdown{{Worker: 0, Factor: 2, Every: 3, Span: 4}}},
		{N: 2, Partitions: []Partition{{From: 0, To: 1, Lo: 1, Hi: 1}}},
		{N: 2, Partitions: []Partition{{From: 3, To: 3, Lo: 0, Hi: 1}}},
		{N: 2, Bursts: &DropBursts{StartProb: 1.5, Length: 1, Frac: 1}},
		{N: 2, Bursts: &DropBursts{StartProb: 0.5, Length: 0, Frac: 1}},
		{N: 2, Bursts: &DropBursts{StartProb: 0.5, Length: 1, Frac: 0}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad plan %d validated: %+v", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan failed validation: %v", err)
	}
}

// TestScenarioLibrary builds every named scenario at several cluster sizes
// and checks validity, determinism and the bounded-blast-radius property
// (at any iteration, at most half the cluster is non-contributing under
// every scenario except burst losses, which are probabilistic).
func TestScenarioLibrary(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("scenario library has %d entries: %v, want 6", len(names), names)
	}
	for _, name := range names {
		if Describe(name) == "" {
			t.Fatalf("scenario %q has no description", name)
		}
		if !Known(name) {
			t.Fatalf("Known(%q) = false", name)
		}
		for _, n := range []int{1, 4, 12, 100} {
			p, err := Scenario(name, n, 7)
			if err != nil {
				t.Fatalf("Scenario(%q, %d): %v", name, n, err)
			}
			q, err := Scenario(name, n, 7)
			if err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 20; iter++ {
				down := 0
				for w := 0; w < n; w++ {
					if p.Contributing(w, iter) != q.Contributing(w, iter) ||
						p.SlowFactor(w, iter) != q.SlowFactor(w, iter) {
						t.Fatalf("scenario %q not deterministic at (%d,%d)", name, w, iter)
					}
					if !p.Contributing(w, iter) {
						down++
					}
				}
				if name != "burst-drop" && down > (n+1)/2 {
					t.Fatalf("scenario %q takes %d/%d workers out at iter %d", name, down, n, iter)
				}
			}
		}
	}
	if _, err := Scenario("nope", 4, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if Known("nope") {
		t.Fatal("Known accepted an unknown scenario")
	}
	if _, err := Scenario("steady", 0, 1); err == nil {
		t.Fatal("non-positive worker count accepted")
	}
}
