package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

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
	for _, scheme := range []Scheme{SchemeUncoded, SchemeBCC, SchemeCyclicRep, SchemeCyclicMDS, SchemeFractional, SchemeRandomized} {
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

func TestShardedCheckpointResumeBitExact(t *testing.T) {
	// A sharded job checkpointing after 10 iterations into per-shard files
	// and resuming for 10 more must reproduce an uninterrupted 20-iteration
	// run bit for bit, and the restore must reject a torn shard set.
	spec := func(iters int) Spec {
		return Spec{
			Examples: 10, Workers: 20, Load: 2,
			DataPoints: 80, Dim: 1100, Iterations: iters, Seed: 55,
			MasterShards: 3, WireChunk: 128,
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
	if err := first.CheckpointSharded(path, 10); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if _, err := os.Stat(fmt.Sprintf("%s.shard%d", path, s)); err != nil {
			t.Fatalf("missing shard file %d: %v", s, err)
		}
	}

	resumed, err := NewJob(spec(10))
	if err != nil {
		t.Fatal(err)
	}
	completed, err := resumed.RestoreShardedCheckpoint(path)
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
		t.Fatalf("sharded resume diverged from uninterrupted run by %v", d)
	}

	// Torn set: deleting one shard file must fail the restore, not
	// silently reassemble a partial state.
	if err := os.Remove(path + ".shard1"); err != nil {
		t.Fatal(err)
	}
	torn, err := NewJob(spec(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.RestoreShardedCheckpoint(path); err == nil {
		t.Fatal("restore of torn shard set succeeded")
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
		{"parallelism", func(s *Spec) { s.ComputeParallelism = -2 }, "ComputeParallelism"},
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
