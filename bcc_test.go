package bcc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestTrainQuickstart(t *testing.T) {
	res, err := Train(Spec{
		Examples: 10, Workers: 20, Load: 2,
		DataPoints: 100, Dim: 16,
		Iterations: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 10 {
		t.Fatalf("iterations %d", len(res.Iters))
	}
	if res.AvgWorkersHeard <= 0 {
		t.Fatal("no workers heard")
	}
}

func TestSchemesExported(t *testing.T) {
	names := Schemes()
	if len(names) != 8 {
		t.Fatalf("schemes: %v", names)
	}
	for _, n := range names {
		s, err := LookupScheme(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != n {
			t.Fatalf("scheme %q reports name %q", n, s.Name())
		}
	}
}

func TestTheoryHelpers(t *testing.T) {
	if h := Harmonic(5); math.Abs(h-137.0/60) > 1e-12 {
		t.Fatalf("H_5 = %v", h)
	}
	k := RecoveryThreshold(50, 10)
	if math.Abs(k-5*Harmonic(5)) > 1e-12 {
		t.Fatalf("K_BCC = %v", k)
	}
	if lb := RecoveryLowerBound(50, 10); lb != 5 {
		t.Fatalf("lower bound %v", lb)
	}
	if rt := RandomizedThreshold(50, 10); rt <= k {
		t.Fatalf("randomized %v should exceed BCC %v", rt, k)
	}
}

func TestHeteroExports(t *testing.T) {
	c := PaperFig5Cluster()
	if len(c) != 100 {
		t.Fatalf("cluster size %d", len(c))
	}
	alloc, err := c.Allocate(600)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.TotalLoad() < 600 {
		t.Fatalf("allocation %d below target", alloc.TotalLoad())
	}
}

func TestLatencyExports(t *testing.T) {
	lat, err := NewShiftExpLatency(4, []ShiftExpParams{{ComputeShift: 1, ComputeMu: 10}}, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if c := lat.Compute(0, 0, 3); c < 3 {
		t.Fatalf("compute %v below shift", c)
	}
	var z ZeroLatency
	if z.Compute(0, 0, 100) != 0 {
		t.Fatal("zero latency should cost nothing")
	}
	f := FixedLatency{PerPoint: 2}
	if f.Compute(0, 0, 3) != 6 {
		t.Fatal("fixed latency arithmetic wrong")
	}
}

func TestRunExperimentExported(t *testing.T) {
	var buf bytes.Buffer
	tab, err := RunExperiment("tailbound", ExperimentOptions{Quick: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "tailbound" || buf.Len() == 0 {
		t.Fatal("experiment did not render")
	}
	ids := Experiments()
	if len(ids) < 10 || ids[0] != "fig2" {
		t.Fatalf("experiment ids: %v", ids)
	}
}

func TestParameterizedSchemeInstall(t *testing.T) {
	// Build a job, replace its plan with a custom-parameterized scheme, and
	// train.
	job, err := NewJob(Spec{
		Examples: 20, Workers: 100, Load: 4,
		DataPoints: 80, Dim: 8, Iterations: 5, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BCCApproxScheme{Phi: 0.6}.Plan(20, 100, 4, NewRNG(14))
	if err != nil {
		t.Fatal(err)
	}
	job.Plan = plan
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	// phi = 0.6 of 5 batches -> 3 covered batches suffice; threshold well
	// below exact BCC's 5*H_5 ~ 11.4.
	if res.AvgWorkersHeard >= 11.4 {
		t.Fatalf("approx threshold %v not below exact", res.AvgWorkersHeard)
	}
}

func TestWeightedBCCPublic(t *testing.T) {
	w := make([]float64, 5)
	for i := range w {
		w[i] = float64(i + 1)
	}
	plan, err := BCCScheme{Weights: w}.Plan(20, 200, 4, NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme() != "bcc" {
		t.Fatalf("scheme %q", plan.Scheme())
	}
}

func TestSchemeSpecSwitch(t *testing.T) {
	// The public API must run every scheme end to end.
	for _, scheme := range Schemes() {
		res, err := Train(Spec{
			Scheme: Scheme(scheme), Examples: 12, Workers: 12, Load: 3,
			DataPoints: 48, Dim: 8, Iterations: 4, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if strings.TrimSpace(scheme) == "" || len(res.Iters) != 4 {
			t.Fatalf("%s: bad result", scheme)
		}
	}
}

func TestObserverSeesEveryIterationPublic(t *testing.T) {
	// Acceptance: an Observer attached through the public Spec on a sim run
	// sees exactly Iterations OnIteration callbacks with stats identical to
	// the returned Result.Iters.
	const iterations = 9
	var got []IterStats
	res, err := Train(Spec{
		Examples: 10, Workers: 20, Load: 2,
		DataPoints: 100, Dim: 16,
		Iterations: iterations, Seed: 3, LossEvery: 1,
		Observer: ObserverFuncs{Iteration: func(st IterStats) { got = append(got, st) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != iterations {
		t.Fatalf("observer saw %d iterations, want %d", len(got), iterations)
	}
	for i := range got {
		if got[i] != res.Iters[i] {
			t.Fatalf("iteration %d: observer saw %+v, result holds %+v", i, got[i], res.Iters[i])
		}
	}
}

func TestTrainContextCancelPublic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	count := 0
	res, err := TrainContext(ctx, Spec{
		Examples: 10, Workers: 20, Load: 2,
		DataPoints: 100, Dim: 16, Iterations: 50, Seed: 4,
		Observer: ObserverFuncs{Iteration: func(IterStats) {
			count++
			if count == 2 {
				cancel()
			}
		}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Iters) != 2 {
		t.Fatalf("want a 2-iteration partial result, got %+v", res)
	}
}

func TestSpecReachesFaultInjection(t *testing.T) {
	// I.i.d. loss is fault-plan content (FaultPlan.Drop): on a lossy network
	// the master needs extra workers per round to reach coverage, so the
	// realized recovery threshold must not drop below the clean run's.
	clean, err := Train(Spec{
		Examples: 8, Workers: 24, Load: 2,
		DataPoints: 64, Dim: 8, Iterations: 10, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := Train(Spec{
		Examples: 8, Workers: 24, Load: 2,
		DataPoints: 64, Dim: 8, Iterations: 10, Seed: 6,
		Faults: &FaultPlan{N: 24, Seed: 9, Drop: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.AvgWorkersHeard < clean.AvgWorkersHeard {
		t.Fatalf("dropping 40%% of transmissions should not lower the threshold: %v vs %v",
			lossy.AvgWorkersHeard, clean.AvgWorkersHeard)
	}
	if _, err := Train(Spec{Examples: 8, Workers: 8, DataPoints: 32, Dim: 4, Iterations: 1, Load: 1,
		Faults: &FaultPlan{N: 8, Drop: 2}}); err == nil {
		t.Fatal("out-of-range FaultPlan.Drop accepted")
	}
	var oe *OptionError
	if _, err := NewJob(Spec{Scheme: "bogus", Examples: 4, Workers: 4, DataPoints: 8, Dim: 2, Iterations: 1, Load: 1}); !errors.As(err, &oe) {
		t.Fatalf("public surface does not expose OptionError: %v", err)
	}
}

func TestTypedOptionConstants(t *testing.T) {
	// The typed constants must round-trip through the registries.
	for _, s := range []Scheme{SchemeBCC, SchemeBCCApprox, SchemeBCCMulti,
		SchemeCyclicRep, SchemeFractional, SchemeRandomized, SchemeUncoded} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(Runtimes()) != 3 || len(Optimizers()) != 2 {
		t.Fatalf("registries: %v %v", Runtimes(), Optimizers())
	}
}

// TestFaultInjectionPublicAPI exercises the exported fault-injection
// surface: the scenario library listing, training under a named scenario
// and under a hand-built FaultPlan, the OnWorkerFault observer stream, and
// the explicit ErrBelowThreshold degradation.
func TestFaultInjectionPublicAPI(t *testing.T) {
	names := FaultScenarios()
	if len(names) != 6 {
		t.Fatalf("scenario library: %v, want 6 entries", names)
	}
	for _, name := range names {
		if DescribeFaultScenario(name) == "" {
			t.Fatalf("scenario %q has no description", name)
		}
	}
	if _, err := FaultScenario("nope", 8, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}

	var events []FaultEvent
	res, err := Train(Spec{
		Examples: 8, Workers: 8, Load: 4,
		DataPoints: 64, Dim: 16,
		Iterations: 6, Seed: 3,
		FaultScenario: "rolling-restart",
		Observer: ObserverFuncs{Fault: func(ev FaultEvent) {
			events = append(events, ev)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 6 {
		t.Fatalf("faulted run recorded %d iterations", len(res.Iters))
	}
	if len(events) == 0 {
		t.Fatal("no fault events observed")
	}

	// A hand-built plan crashing the whole cluster mid-run degrades
	// explicitly with the exported sentinel (which wraps ErrStalled).
	plan := &FaultPlan{N: 8}
	for w := 0; w < 8; w++ {
		plan.Crashes = append(plan.Crashes, FaultCrash{Worker: w, At: 2})
	}
	res, err = Train(Spec{
		Examples: 8, Workers: 8, Load: 4,
		DataPoints: 64, Dim: 16,
		Iterations: 6, Seed: 3,
		Faults: plan,
	})
	if !errors.Is(err, ErrBelowThreshold) || !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrBelowThreshold wrapping ErrStalled", err)
	}
	if res == nil || len(res.Iters) != 2 {
		t.Fatalf("partial result %+v, want the 2 pre-crash iterations", res)
	}
}

func TestServicePublicAPI(t *testing.T) {
	d, err := StartService(ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// One fleet worker so a tiny TCP job can be admitted end to end.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeFleetWorker(ctx, d.Addr(), "facade-w0")
	}()

	c, err := DialService(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := Spec{
		Examples: 4, Workers: 1, Load: 4,
		DataPoints: 40, Dim: 8,
		Iterations: 4, Seed: 11,
		Runtime: RuntimeTCP,
	}
	// The wire codec round-trips the spec the client will submit.
	blob, err := EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := DecodeSpec(blob); err != nil || back.Workers != 1 {
		t.Fatalf("DecodeSpec = %+v, %v", back, err)
	}

	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("state %q already terminal at submit", st.State)
	}
	fin, err := d.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone || fin.Iter != 4 {
		t.Fatalf("final = %q iter %d (err %q), want done/4", fin.State, fin.Iter, fin.Err)
	}
	if len(d.Workers()) != 1 || len(d.Jobs()) != 1 {
		t.Fatalf("workers %d jobs %d, want 1/1", len(d.Workers()), len(d.Jobs()))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
}
