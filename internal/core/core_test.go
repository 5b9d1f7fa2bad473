package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"bcc/internal/checkpoint"
	"bcc/internal/cluster"
	"bcc/internal/faults"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

func TestDefaults(t *testing.T) {
	s := (&Spec{}).withDefaults()
	if s.Scheme != "bcc" || s.Optimizer != "nesterov" || s.Runtime != "sim" {
		t.Fatalf("defaults: %+v", s)
	}
	if s.Examples != 20 || s.Workers != 20 || s.Load != 1 {
		t.Fatalf("size defaults: %+v", s)
	}
	if s.DataPoints != 2000 {
		t.Fatalf("DataPoints default %d", s.DataPoints)
	}
}

func TestNewJobAndRun(t *testing.T) {
	job, err := NewJob(Spec{
		Examples: 10, Workers: 20, Load: 2,
		DataPoints: 100, Dim: 15,
		Iterations: 12, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 12 {
		t.Fatalf("iterations %d", len(res.Iters))
	}
	if vecmath.Norm2(res.FinalW) == 0 {
		t.Fatal("weights did not move")
	}
	// The trained model should beat the trivial classifier on its own data.
	if acc := job.Accuracy(res.FinalW); acc <= 0.5 {
		t.Fatalf("training accuracy %v", acc)
	}
}

func TestJobReproducible(t *testing.T) {
	run := func() []float64 {
		job, err := NewJob(Spec{Examples: 8, Workers: 16, Load: 2, DataPoints: 64, Dim: 10, Iterations: 8, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalW
	}
	if vecmath.MaxAbsDiff(run(), run()) != 0 {
		t.Fatal("same spec+seed produced different weights")
	}
}

func TestSchemesAgreeOnWeights(t *testing.T) {
	// All schemes compute the same mathematical gradient; the learned
	// weights must agree across schemes up to fp noise.
	var ref []float64
	for _, scheme := range []Scheme{SchemeUncoded, SchemeBCC, SchemeCyclicRep, SchemeFractional, SchemeRandomized} {
		job, err := NewJob(Spec{
			Scheme: Scheme(scheme), Examples: 12, Workers: 12, Load: 3,
			DataPoints: 96, Dim: 10, Iterations: 10, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if ref == nil {
			ref = res.FinalW
			continue
		}
		if d := vecmath.MaxAbsDiff(ref, res.FinalW); d > 1e-6 {
			t.Fatalf("%s weights differ from uncoded by %v", scheme, d)
		}
	}
}

// TestCyclicMDSResolvesToCyclicRep pins the deprecated scheme name: every
// entry point that normalizes a spec runs cyclicrep for it, and the job it
// builds is the cyclicrep job at the same seed, bit for bit.
func TestCyclicMDSResolvesToCyclicRep(t *testing.T) {
	spec := func(s Scheme) Spec {
		return Spec{Scheme: s, Examples: 8, Workers: 8, Load: 3, DataPoints: 64, Dim: 10, Iterations: 5, Seed: 3}
	}
	norm, err := spec(SchemeCyclicMDS).Normalized()
	if err != nil || norm.Scheme != SchemeCyclicRep {
		t.Fatalf("Normalized: scheme %q, err %v", norm.Scheme, err)
	}
	dec, err := DecodeSpec([]byte(`{"scheme":"cyclicmds","examples":8,"workers":8,"load":3}`))
	if err != nil || dec.Scheme != SchemeCyclicRep {
		t.Fatalf("DecodeSpec: scheme %q, err %v", dec.Scheme, err)
	}
	run := func(s Scheme) *cluster.Result {
		job, err := NewJob(spec(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if job.Spec.Scheme != SchemeCyclicRep || job.Plan.Scheme() != "cyclicrep" {
			t.Fatalf("%s: job runs spec scheme %q, plan %q", s, job.Spec.Scheme, job.Plan.Scheme())
		}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return res
	}
	alias, rep := run(SchemeCyclicMDS), run(SchemeCyclicRep)
	if d := vecmath.MaxAbsDiff(alias.FinalW, rep.FinalW); d != 0 {
		t.Fatalf("cyclicmds and cyclicrep weights differ by %v", d)
	}
}

func TestRuntimesAgree(t *testing.T) {
	run := func(runtime Runtime) []float64 {
		job, err := NewJob(Spec{
			Examples: 8, Workers: 16, Load: 2, DataPoints: 64, Dim: 8,
			Iterations: 6, Seed: 11, Runtime: runtime, TimeScale: 1e-5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalW
	}
	sim := run("sim")
	live := run("live")
	tcp := run("tcp")
	if vecmath.MaxAbsDiff(sim, live) != 0 {
		t.Fatal("sim and live disagree")
	}
	if vecmath.MaxAbsDiff(sim, tcp) != 0 {
		t.Fatal("sim and tcp disagree")
	}
}

func TestInvalidSpecs(t *testing.T) {
	if _, err := NewJob(Spec{Scheme: "nope", Examples: 4, Workers: 4, DataPoints: 8, Dim: 2, Iterations: 1, Load: 1}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := NewJob(Spec{Optimizer: "adamw", Examples: 4, Workers: 4, DataPoints: 8, Dim: 2, Iterations: 1, Load: 1}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
	job, err := NewJob(Spec{Examples: 4, Workers: 4, DataPoints: 8, Dim: 2, Iterations: 1, Load: 1})
	if err != nil {
		t.Fatal(err)
	}
	job.Spec.Runtime = "quantum"
	if _, err := job.Run(); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

func TestGDOptimizerPath(t *testing.T) {
	job, err := NewJob(Spec{
		Optimizer: "gd", Examples: 6, Workers: 6, Load: 1,
		DataPoints: 60, Dim: 8, Iterations: 20, Seed: 3, LossEvery: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Iters[19].Loss) {
		t.Fatal("loss not recorded")
	}
	if res.Iters[19].Loss >= math.Log(2) {
		t.Fatalf("GD did not reduce loss below log 2: %v", res.Iters[19].Loss)
	}
}

func TestCheckpointResumeBitExact(t *testing.T) {
	// Running 10 iterations, checkpointing, and resuming for 10 more must
	// reproduce an uninterrupted 20-iteration run bit for bit.
	spec := func(iters int) Spec {
		return Spec{
			Examples: 10, Workers: 20, Load: 2,
			DataPoints: 80, Dim: 12, Iterations: iters, Seed: 55,
		}
	}
	full, err := NewJob(spec(20))
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	first, err := NewJob(spec(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ckpt.bin"
	if err := first.Checkpoint(path, 10); err != nil {
		t.Fatal(err)
	}

	resumed, err := NewJob(spec(10))
	if err != nil {
		t.Fatal(err)
	}
	completed, err := resumed.RestoreCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if completed != 10 {
		t.Fatalf("completed = %d", completed)
	}
	resRes, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(fullRes.FinalW, resRes.FinalW); d != 0 {
		t.Fatalf("resume diverged from uninterrupted run by %v", d)
	}
}

func TestCheckpointRejectsInvalidScalars(t *testing.T) {
	// A checkpoint file is outside input: a negative iteration count, or a
	// Nesterov theta that is not a finite value >= 1, must fail the restore
	// instead of silently derailing the step-size schedule or momentum.
	spec := func(opt string) Spec {
		return Spec{Optimizer: Optimizer(opt), Examples: 8, Workers: 8, Load: 2, DataPoints: 32, Dim: 6, Iterations: 2, Seed: 1}
	}
	for _, tc := range []struct {
		name, opt string
		corrupt   func(*checkpoint.State)
	}{
		{"negative completed", "nesterov", func(s *checkpoint.State) { s.Completed = -1 }},
		{"negative T", "nesterov", func(s *checkpoint.State) { s.Opt.T = -3 }},
		{"gd negative T", "gd", func(s *checkpoint.State) { s.Opt.T = -1 }},
		{"theta NaN", "nesterov", func(s *checkpoint.State) { s.Opt.Theta = math.NaN() }},
		{"theta +Inf", "nesterov", func(s *checkpoint.State) { s.Opt.Theta = math.Inf(1) }},
		{"theta -Inf", "nesterov", func(s *checkpoint.State) { s.Opt.Theta = math.Inf(-1) }},
		{"theta below 1", "nesterov", func(s *checkpoint.State) { s.Opt.Theta = 0.5 }},
	} {
		job, err := NewJob(spec(tc.opt))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/ckpt.bin"
		if err := job.Checkpoint(path, 2); err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(st)
		if err := checkpoint.Save(path, st); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewJob(spec(tc.opt))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.RestoreCheckpoint(path); err == nil {
			t.Errorf("%s: restore accepted the checkpoint", tc.name)
		}
		// The valid checkpoint the corruption started from restores.
		if err := job.Checkpoint(path, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.RestoreCheckpoint(path); err != nil {
			t.Errorf("%s: valid checkpoint rejected: %v", tc.name, err)
		}
	}
}

func TestCheckpointTopologyValidation(t *testing.T) {
	job, err := NewJob(Spec{Examples: 8, Workers: 8, Load: 2, DataPoints: 32, Dim: 6, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ckpt.bin"
	if err := job.Checkpoint(path, 2); err != nil {
		t.Fatal(err)
	}
	other, err := NewJob(Spec{Examples: 8, Workers: 8, Load: 2, DataPoints: 32, Dim: 6, Iterations: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.RestoreCheckpoint(path); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

func TestLatencyThreading(t *testing.T) {
	rng := rngutil.New(4)
	lat, err := cluster.NewShiftExp(16, []cluster.ShiftExpParams{{CommShift: 0.01, CommMu: 1}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(Spec{
		Examples: 8, Workers: 16, Load: 2, DataPoints: 32, Dim: 4,
		Iterations: 5, Seed: 5, Latency: lat, IngressPerUnit: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWall <= 0 {
		t.Fatal("latency did not produce positive wall time")
	}
}

func TestGradNormTolStopsEarly(t *testing.T) {
	spec := Spec{
		Examples: 10, Workers: 10, Load: 2,
		DataPoints: 80, Dim: 12, Iterations: 30, Seed: 21,
	}
	full, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Pick the norm reached at iteration 10 as the tolerance; the sim is
	// deterministic, so the early-stopped run must halt at the first
	// iteration of the full run whose norm is at or below it.
	tol := fullRes.Iters[10].GradNorm
	firstHit := -1
	for i, it := range fullRes.Iters {
		if it.GradNorm <= tol {
			firstHit = i
			break
		}
	}
	spec.GradNormTol = tol
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) >= 30 {
		t.Fatalf("gradient tolerance did not stop the run early (%d iterations)", len(res.Iters))
	}
	if got := len(res.Iters) - 1; got != firstHit {
		t.Fatalf("stopped after iteration %d, first tolerable iteration is %d", got, firstHit)
	}
	if last := res.Iters[len(res.Iters)-1].GradNorm; last > tol {
		t.Fatalf("final gradient norm %v above tolerance %v", last, tol)
	}
}

func TestStopWhenComposesWithGradNormTol(t *testing.T) {
	spec := Spec{
		Examples: 10, Workers: 10, Load: 2,
		DataPoints: 80, Dim: 12, Iterations: 30, Seed: 22,
		GradNormTol: 1e-12, // unreachable in 30 iterations
		StopWhen:    func(st cluster.IterStats) bool { return st.Iter >= 2 },
	}
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 3 {
		t.Fatalf("user StopWhen lost under GradNormTol merge: %d iterations", len(res.Iters))
	}
}

func TestAutoCheckpointResumeRoundTrip(t *testing.T) {
	// A run that auto-checkpoints every 5 iterations, "crashes" (is
	// cancelled) after iteration 12, and is resumed from the latest
	// checkpoint must finish bit-for-bit identical to an uninterrupted run.
	path := t.TempDir() + "/auto.ckpt"
	spec := func(iters int) Spec {
		return Spec{
			Examples: 10, Workers: 20, Load: 2,
			DataPoints: 80, Dim: 12, Iterations: iters, Seed: 56,
		}
	}
	full, err := NewJob(spec(20))
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	crashSpec := spec(20)
	crashSpec.CheckpointEvery = 5
	crashSpec.CheckpointPath = path
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crashSpec.Observer = cluster.ObserverFuncs{Iteration: func(st cluster.IterStats) {
		if st.Iter == 12 {
			cancel()
		}
	}}
	crashed, err := NewJob(crashSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	resumed, err := NewJob(spec(20))
	if err != nil {
		t.Fatal(err)
	}
	completed, err := resumed.RestoreCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if completed != 10 {
		t.Fatalf("latest auto-checkpoint holds %d completed iterations, want 10", completed)
	}
	resumed.Spec.Iterations = 20 - completed
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(fullRes.FinalW, res.FinalW); d != 0 {
		t.Fatalf("auto-checkpoint resume diverged from uninterrupted run by %v", d)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	job, err := NewJob(Spec{Examples: 8, Workers: 8, Load: 2, DataPoints: 32, Dim: 6, Iterations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := job.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Iters) != 0 {
		t.Fatalf("want empty partial result, got %+v", res)
	}
}

func TestOptionErrorsFailFast(t *testing.T) {
	base := Spec{Examples: 4, Workers: 4, DataPoints: 8, Dim: 2, Iterations: 1, Load: 1}
	cases := []struct {
		name   string
		mutate func(*Spec)
		option string
	}{
		{"scheme", func(s *Spec) { s.Scheme = "nope" }, "Scheme"},
		{"optimizer", func(s *Spec) { s.Optimizer = "adamw" }, "Optimizer"},
		{"runtime", func(s *Spec) { s.Runtime = "quantum" }, "Runtime"},
		{"drop", func(s *Spec) { s.Faults = &faults.Plan{N: 4, Drop: 1.5} }, "Faults"},
		{"faults-size", func(s *Spec) { s.Faults = &faults.Plan{N: 3} }, "Faults"},
		{"iterations", func(s *Spec) { s.Iterations = -1 }, "Iterations"},
		{"ingress", func(s *Spec) { s.IngressPerUnit = -1 }, "IngressPerUnit"},
		{"ingress-nan", func(s *Spec) { s.IngressPerUnit = math.NaN() }, "IngressPerUnit"},
		{"checkpoint-every", func(s *Spec) { s.CheckpointEvery = -1 }, "CheckpointEvery"},
		{"checkpoint-path", func(s *Spec) { s.CheckpointEvery = 3 }, "CheckpointPath"},
		{"grad-tol", func(s *Spec) { s.GradNormTol = -0.1 }, "GradNormTol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mutate(&spec)
			_, err := NewJob(spec)
			if err == nil {
				t.Fatal("misconfigured spec accepted")
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %T (%v) is not an *OptionError", err, err)
			}
			if oe.Option != tc.option {
				t.Fatalf("OptionError names %q, want %q", oe.Option, tc.option)
			}
		})
	}
	// Registry-backed errors must list the known values.
	_, err := NewJob(Spec{Scheme: "nope", Examples: 4, Workers: 4, DataPoints: 8, Dim: 2, Iterations: 1, Load: 1})
	var oe *OptionError
	if !errors.As(err, &oe) || len(oe.Known) == 0 {
		t.Fatalf("scheme OptionError carries no known values: %v", err)
	}
}

func TestValidateMethods(t *testing.T) {
	if err := SchemeBCC.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := OptimizerGD.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := RuntimeTCP.Validate(); err != nil {
		t.Fatal(err)
	}
	if Scheme("x").Validate() == nil || Optimizer("x").Validate() == nil || Runtime("x").Validate() == nil {
		t.Fatal("bogus option values validated")
	}
	if got := len(Runtimes()); got != 3 {
		t.Fatalf("Runtimes() lists %d entries", got)
	}
	if got := len(Optimizers()); got != 2 {
		t.Fatalf("Optimizers() lists %d entries", got)
	}
}

func TestResumedAutoCheckpointCountsCumulative(t *testing.T) {
	// Auto-checkpoints written during a RESUMED run must record the
	// cumulative completed count (restored base + this run's iterations),
	// matching what the final Job.Checkpoint path writes.
	path := t.TempDir() + "/cum.ckpt"
	spec := Spec{
		Examples: 10, Workers: 20, Load: 2,
		DataPoints: 80, Dim: 12, Iterations: 10, Seed: 57,
	}
	first, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	if err := first.Checkpoint(path, 10); err != nil {
		t.Fatal(err)
	}

	resumedSpec := spec
	resumedSpec.CheckpointEvery = 4
	resumedSpec.CheckpointPath = path
	resumed, err := NewJob(resumedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if completed, err := resumed.RestoreCheckpoint(path); err != nil || completed != 10 {
		t.Fatalf("restore: completed=%d err=%v", completed, err)
	}
	resumed.Spec.Iterations = 10
	if _, err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	// Last periodic checkpoint fired after 8 iterations of the resumed run.
	check, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	completed, err := check.RestoreCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if completed != 18 {
		t.Fatalf("resumed auto-checkpoint recorded %d completed iterations, want cumulative 18", completed)
	}
}

// TestFaultScenarioSpec checks the FaultScenario/FaultSeed plumbing: an
// unknown scenario fails fast with an *OptionError naming the library, a
// known one resolves to a deterministic Job.Faults plan, and the scheduled
// fault events reach the Spec.Observer identically on repeated runs.
func TestFaultScenarioSpec(t *testing.T) {
	if _, err := NewJob(Spec{FaultScenario: "nope"}); err == nil {
		t.Fatal("unknown fault scenario accepted")
	} else {
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Option != "FaultScenario" || len(oe.Known) == 0 {
			t.Fatalf("want *OptionError for FaultScenario with known values, got %v", err)
		}
	}
	if _, err := NewJob(Spec{Faults: &faults.Plan{N: -1}}); err == nil {
		t.Fatal("invalid Spec.Faults plan accepted")
	}

	run := func() ([]string, *cluster.Result) {
		var evs []string
		job, err := NewJob(Spec{
			Examples: 8, Workers: 8, Load: 4,
			DataPoints: 64, Dim: 12,
			Iterations: 6, Seed: 5,
			FaultScenario: "rolling-restart",
			Observer: cluster.ObserverFuncs{Fault: func(ev faults.Event) {
				evs = append(evs, ev.String())
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if job.Faults == nil || job.Faults.N != 8 {
			t.Fatalf("scenario did not resolve onto the job: %+v", job.Faults)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return evs, res
	}
	evsA, resA := run()
	evsB, resB := run()
	if len(evsA) == 0 {
		t.Fatal("rolling-restart emitted no fault events")
	}
	if strings.Join(evsA, "\n") != strings.Join(evsB, "\n") {
		t.Fatalf("fault traces differ between identical specs:\n%v\n%v", evsA, evsB)
	}
	if d := vecmath.MaxAbsDiff(resA.FinalW, resB.FinalW); d != 0 {
		t.Fatalf("identical faulted specs trained different weights: %v", d)
	}

	// Without a plan or scenario the job still runs under one — the empty
	// plan on the scenario seed rule, i.e. the steady scenario — so callers
	// can extend it (bcctrain's -dead and -drop).
	base := Spec{Examples: 8, Workers: 8, Seed: 5}
	empty, err := base.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	steadySpec := base
	steadySpec.FaultScenario = "steady"
	steady, err := steadySpec.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, steady) || empty.N != 8 || empty.Seed == 0 {
		t.Fatalf("empty plan %+v, steady scenario %+v", empty, steady)
	}

	// An explicit Spec.Faults plan takes precedence over the scenario name.
	explicit := &faults.Plan{N: 8}
	job, err := NewJob(Spec{
		Examples: 8, Workers: 8, Load: 4, DataPoints: 64, Dim: 12,
		Iterations: 2, Seed: 5,
		Faults: explicit, FaultScenario: "rolling-restart",
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Faults != explicit {
		t.Fatal("Spec.Faults did not take precedence over FaultScenario")
	}
}
