package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"bcc/internal/cluster"
	"bcc/internal/faults"
	"bcc/internal/trace"
)

// TestSpecEncodeDecodeRoundTrip: a spec survives the control-plane codec
// with every serializable field intact, including a fault plan.
func TestSpecEncodeDecodeRoundTrip(t *testing.T) {
	in := Spec{
		DataPoints:         240,
		Dim:                64,
		Separation:         2.0,
		StandardLabels:     true,
		Lambda:             0.01,
		Examples:           6,
		Workers:            6,
		Load:               3,
		Scheme:             SchemeCyclicRep,
		Iterations:         17,
		StepSize:           0.25,
		Optimizer:          OptimizerGD,
		Seed:               99,
		Faults:             &faults.Plan{N: 6, Seed: 3, Drop: 0.05, Crashes: []faults.Crash{{Worker: 1}, {Worker: 2, At: 5, RestartAfter: 2}}},
		ComputeParallelism: 2,
		Runtime:            RuntimeTCP,
		Payload:            PayloadTopK,
		TopK:               8,
		WireChunk:          128,
		TimeScale:          1e-4,
		LossEvery:          5,
		GradNormTol:        1e-9,
	}
	data, err := EncodeSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\n got  %+v\n want %+v", got, want)
	}
	// Both sides must materialize the identical job from the spec.
	j1, err := NewJob(want)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := NewJob(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j1.Plan.Assignments(), j2.Plan.Assignments()) {
		t.Fatal("rebuilt jobs disagree on placement")
	}
	if !reflect.DeepEqual(j1.Units, j2.Units) {
		t.Fatal("rebuilt jobs disagree on units")
	}
}

// TestSpecEncodeDefaultsApplied: encoding normalizes first, so a zero spec
// decodes to the fully-defaulted spec.
func TestSpecEncodeDefaultsApplied(t *testing.T) {
	data, err := EncodeSpec(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != SchemeBCC || got.Runtime != RuntimeSim || got.Payload != PayloadRaw64 ||
		got.Workers == 0 || got.Iterations == 0 {
		t.Fatalf("defaults missing after round trip: %+v", got)
	}
}

// TestSpecEncodeRejectsLocalState: process-local fields cannot travel.
func TestSpecEncodeRejectsLocalState(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"latency", Spec{Latency: cluster.Zero{}}, "Latency"},
		{"observer", Spec{Observer: cluster.ObserverFuncs{}}, "Observer"},
		{"stopwhen", Spec{StopWhen: func(cluster.IterStats) bool { return false }}, "StopWhen"},
		{"trace", Spec{Trace: &trace.Recorder{}}, "Trace"},
		{"checkpoint", Spec{CheckpointEvery: 5, CheckpointPath: "x"}, "checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := EncodeSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("EncodeSpec err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestSpecDecodeRejects: invalid payloads fail loudly.
func TestSpecDecodeRejects(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"scheme":"no-such-scheme"}`)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := DecodeSpec([]byte(`{"unknown_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// An older submitter's spec still carrying a removed option: pipelined,
	// the fault fields that Faults carries as a crash at iteration 0 and
	// Plan.Drop, or the decode fan-out that MasterShards replaced.
	for _, legacy := range []string{`{"pipelined":true}`, `{"dead":[1]}`, `{"drop_prob":0.1}`, `{"drop_seed":7}`, `{"decode_parallelism":2}`} {
		field := legacy[1:strings.Index(legacy, ":")]
		if _, err := DecodeSpec([]byte(legacy)); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("spec %s: err = %v, want an error naming %s", legacy, err, field)
		}
	}
	// Negative counts and costs fail at decode time with an *OptionError,
	// before a service job leases workers for them.
	var oe *OptionError
	if _, err := DecodeSpec([]byte(`{"iterations":-3,"ingress_per_unit":-1}`)); !errors.As(err, &oe) {
		t.Fatalf("negative iterations and ingress: err = %v, want an *OptionError", err)
	}
	if _, err := DecodeSpec([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestJobStateTerminal pins the lifecycle partition.
func TestJobStateTerminal(t *testing.T) {
	for st, terminal := range map[JobState]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobFailed: true, JobCanceled: true, JobDegraded: true,
	} {
		if st.Terminal() != terminal {
			t.Fatalf("%s.Terminal() = %v, want %v", st, st.Terminal(), terminal)
		}
	}
}
