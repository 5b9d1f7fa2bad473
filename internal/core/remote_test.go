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

// specGolden is EncodeSpec of the round-trip spec below: the control-plane
// wire format, pinned byte for byte so a refactor of the spec's encoding
// cannot change what daemons and fleet workers exchange.
const specGolden = `{"data_points":240,"dim":64,"density":0.5,"examples":6,"workers":6,"load":3,"scheme":"nested","adapt_redundancy":true,"adapt_window":4,"iterations":17,"step_size":0.25,"optimizer":"gd","seed":99,"ingress_per_unit":0.0055,"faults":{"N":6,"Seed":3,"Drop":0.05,"Crashes":[{"Worker":1,"At":0,"RestartAfter":0},{"Worker":2,"At":5,"RestartAfter":2}],"Slowdowns":null,"Partitions":null,"Bursts":null},"fault_scenario":"flaky-tail","fault_seed":12,"runtime":"tcp","payload":"topk","top_k":8,"wire_chunk":16,"time_scale":0.0001,"loss_every":5,"grad_norm_tol":1e-9}`

// TestSpecEncodeDecodeRoundTrip: a spec survives the control-plane codec
// with every serializable field intact, including a fault plan, and encodes
// to the pinned wire bytes.
func TestSpecEncodeDecodeRoundTrip(t *testing.T) {
	in := Spec{
		DataPoints:      240,
		Dim:             64,
		Density:         0.5,
		Examples:        6,
		Workers:         6,
		Load:            3,
		Scheme:          SchemeNested,
		AdaptRedundancy: true,
		AdaptWindow:     4,
		Iterations:      17,
		StepSize:        0.25,
		Optimizer:       OptimizerGD,
		Seed:            99,
		IngressPerUnit:  5.5e-3,
		Faults:          &faults.Plan{N: 6, Seed: 3, Drop: 0.05, Crashes: []faults.Crash{{Worker: 1}, {Worker: 2, At: 5, RestartAfter: 2}}},
		FaultScenario:   "flaky-tail",
		FaultSeed:       12,
		Runtime:         RuntimeTCP,
		Payload:         PayloadTopK,
		TopK:            8,
		WireChunk:       16,
		TimeScale:       1e-4,
		LossEvery:       5,
		GradNormTol:     1e-9,
	}
	data, err := EncodeSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != specGolden {
		t.Fatalf("wire format drifted:\n got  %s\n want %s", data, specGolden)
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
// Every Spec field either goes on the wire under an explicit JSON name or is
// a "-" field with a case here, so a new closure or interface field cannot
// slip onto the wire (or silently off it) unnoticed.
func TestSpecEncodeRejectsLocalState(t *testing.T) {
	cases := []struct {
		name  string
		field string // the json:"-" Spec field the case sets
		spec  Spec
		want  string
	}{
		{"latency", "Latency", Spec{Latency: cluster.Zero{}}, "Latency"},
		{"observer", "Observer", Spec{Observer: cluster.ObserverFuncs{}}, "Observer"},
		{"stopwhen", "StopWhen", Spec{StopWhen: func(cluster.IterStats) bool { return false }}, "StopWhen"},
		{"trace", "Trace", Spec{Trace: &trace.Recorder{}}, "Trace"},
		{"checkpoint", "CheckpointEvery", Spec{CheckpointEvery: 5}, "checkpoint"},
		{"checkpoint-path", "CheckpointPath", Spec{CheckpointPath: "x"}, "checkpoint"},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.field] = true
		t.Run(tc.name, func(t *testing.T) {
			if _, err := EncodeSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("EncodeSpec err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch name, _, _ := strings.Cut(f.Tag.Get("json"), ","); {
		case name == "":
			t.Errorf("Spec.%s has no json tag: name it, or tag it \"-\" and refuse it in EncodeSpec", f.Name)
		case name == "-" && !covered[f.Name]:
			t.Errorf("Spec.%s is tagged \"-\" but no case shows EncodeSpec refusing it", f.Name)
		}
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
	// Plan.Drop, the decode and worker fan-outs and the sharded master, or
	// the data and model knobs that only ever took the paper's values. Each
	// fails as an unknown field instead of quietly running serial.
	for _, legacy := range []string{`{"pipelined":true}`, `{"dead":[1]}`, `{"drop_prob":0.1}`, `{"drop_seed":7}`, `{"decode_parallelism":2}`,
		`{"compute_parallelism":2}`, `{"master_shards":2}`,
		`{"separation":1.5}`, `{"standard_labels":true}`, `{"lambda":0.01}`} {
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
	// Anything but whitespace after the spec value is refused: a second
	// value or trailing garbage means the bytes are not one spec.
	for _, trailing := range []string{`{"workers":4}{"workers":8}`, `{"workers":4} garbage`} {
		if _, err := DecodeSpec([]byte(trailing)); err == nil {
			t.Fatalf("spec %s with trailing bytes accepted", trailing)
		}
	}
	if _, err := DecodeSpec([]byte("{\"workers\":4}\n\t ")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
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
