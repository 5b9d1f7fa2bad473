// Package core wires the paper's pieces — synthetic data, logistic model,
// Nesterov optimizer, a gradient-coding scheme and a cluster runtime — into
// one distributed training job. It is the engine behind the public bcc
// package and the experiment harness.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"bcc/internal/checkpoint"
	"bcc/internal/cluster"
	"bcc/internal/coding"
	"bcc/internal/dataset"
	"bcc/internal/faults"
	"bcc/internal/model"
	"bcc/internal/optimize"
	"bcc/internal/rngutil"
	"bcc/internal/trace"
	"bcc/internal/wire"
)

// ---------------------------------------------------------------------------
// Typed option values
// ---------------------------------------------------------------------------
//
// Scheme, Optimizer and Runtime are defined string types so that option
// values are part of the API surface instead of stringly-typed folklore:
// misconfiguration fails fast at NewJob time with one error shape
// (*OptionError) naming the field, the offending value and the known values,
// instead of surfacing three layers deep during Run. Untyped string
// constants still assign directly, so Spec literals like
// Spec{Scheme: "bcc"} keep compiling; code that holds these fields in
// plain string variables must add a conversion.

// Scheme names a registered gradient-coding scheme (see coding.Names()).
type Scheme string

// The registered gradient-coding schemes.
const (
	SchemeBCC        Scheme = "bcc"
	SchemeBCCApprox  Scheme = "bccapprox"
	SchemeBCCMulti   Scheme = "bccmulti"
	SchemeCyclicRep  Scheme = "cyclicrep"
	SchemeFractional Scheme = "fractional"
	SchemeNested     Scheme = "nested"
	SchemeRandomized Scheme = "randomized"
	SchemeUncoded    Scheme = "uncoded"

	// Deprecated: the name of a deleted complex-coded scheme. A spec that
	// names it runs SchemeCyclicRep, which has the same m - r + 1
	// threshold and unit load.
	SchemeCyclicMDS Scheme = "cyclicmds"
)

// Validate resolves the scheme against the coding registry.
func (s Scheme) Validate() error {
	if _, err := coding.Lookup(string(s)); err != nil {
		return &OptionError{Option: "Scheme", Value: string(s), Known: coding.Names()}
	}
	return nil
}

// Optimizer names a first-order update rule.
type Optimizer string

// The registered optimizers.
const (
	OptimizerNesterov Optimizer = "nesterov"
	OptimizerGD       Optimizer = "gd"
)

// optimizers is the registry behind Optimizer resolution; each entry builds
// a fresh optimizer at the given dimension and step size.
var optimizers = map[Optimizer]func(dim int, step float64) optimize.Optimizer{
	OptimizerNesterov: func(dim int, step float64) optimize.Optimizer {
		return optimize.NewNesterov(make([]float64, dim), optimize.Constant(step))
	},
	OptimizerGD: func(dim int, step float64) optimize.Optimizer {
		return optimize.NewGD(make([]float64, dim), optimize.Constant(step))
	},
}

// Validate resolves the optimizer against the registry.
func (o Optimizer) Validate() error {
	if _, ok := optimizers[o]; !ok {
		return &OptionError{Option: "Optimizer", Value: string(o), Known: optionNames(optimizers)}
	}
	return nil
}

// Optimizers lists the registered optimizer names, sorted.
func Optimizers() []Optimizer { return typedNames[Optimizer](optimizers) }

// Runtime names an execution substrate for the master engine.
type Runtime string

// The registered runtimes. All of them drive the same master engine over
// different transports.
const (
	RuntimeSim  Runtime = "sim"
	RuntimeLive Runtime = "live"
	RuntimeTCP  Runtime = "tcp"
)

// runtimes is the registry behind Runtime resolution: each entry drives the
// shared master engine over one transport. Live and tcp are one fabric:
// wire frames over in-process pipes or over loopback sockets.
var runtimes = map[Runtime]func(ctx context.Context, cfg *cluster.Config, spec Spec) (*cluster.Result, error){
	RuntimeSim: func(ctx context.Context, cfg *cluster.Config, _ Spec) (*cluster.Result, error) {
		return cluster.RunSimContext(ctx, cfg)
	},
	RuntimeLive: func(ctx context.Context, cfg *cluster.Config, spec Spec) (*cluster.Result, error) {
		return cluster.RunLiveContext(ctx, cfg, cluster.LiveOptions{TimeScale: spec.TimeScale})
	},
	RuntimeTCP: func(ctx context.Context, cfg *cluster.Config, spec Spec) (*cluster.Result, error) {
		return cluster.RunLiveContext(ctx, cfg, cluster.LiveOptions{TimeScale: spec.TimeScale, TCP: true})
	},
}

// Validate resolves the runtime against the registry.
func (r Runtime) Validate() error {
	if _, ok := runtimes[r]; !ok {
		return &OptionError{Option: "Runtime", Value: string(r), Known: optionNames(runtimes)}
	}
	return nil
}

// Runtimes lists the registered runtime names, sorted.
func Runtimes() []Runtime { return typedNames[Runtime](runtimes) }

// Payload names a comm-plane payload codec: how gradient payloads are
// represented between workers and the master (see wire.PayloadCodecNames).
type Payload string

// The registered payload codecs.
const (
	// PayloadRaw64 is the default: dense float64, lossless and bit-exact.
	PayloadRaw64 Payload = "raw64"
	// PayloadF32 quantizes query and reply vectors to float32 — half the
	// bytes, deterministically identical results on every runtime.
	PayloadF32 Payload = "f32"
	// PayloadTopK keeps only the Spec.TopK largest-magnitude coordinates of
	// each reply vector (values quantized to float32, shipped index+value
	// style); queries stay dense.
	PayloadTopK Payload = "topk"
)

// Validate resolves the payload codec name.
func (p Payload) Validate() error {
	if _, err := wire.ParsePayloadCodec(string(p)); err != nil {
		return &OptionError{Option: "Payload", Value: string(p), Known: wire.PayloadCodecNames()}
	}
	return nil
}

// Payloads lists the registered payload codec names, sorted.
func Payloads() []Payload {
	names := wire.PayloadCodecNames()
	out := make([]Payload, len(names))
	for i, n := range names {
		out[i] = Payload(n)
	}
	return out
}

func optionNames[K ~string, V any](m map[K]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

func typedNames[K ~string, V any](m map[K]V) []K {
	names := optionNames(m)
	out := make([]K, len(names))
	for i, n := range names {
		out[i] = K(n)
	}
	return out
}

// OptionError reports a Spec field holding an invalid value. All option
// validation — unknown scheme/optimizer/runtime names, out-of-range knobs —
// reports through this one type, so callers can errors.As for it and print
// the known values.
type OptionError struct {
	// Option is the Spec field name, e.g. "Scheme" or "Faults".
	Option string
	// Value is the offending value, formatted.
	Value string
	// Known lists the valid values when they are enumerable (registry-backed
	// options); empty for range constraints.
	Known []string
	// Reason states the violated constraint for non-enumerable options,
	// e.g. "outside [0, 1)".
	Reason string
}

func (e *OptionError) Error() string {
	switch {
	case len(e.Known) > 0:
		return fmt.Sprintf("bcc: unknown %s %q (known: %s)", e.Option, e.Value, strings.Join(e.Known, ", "))
	case e.Reason != "":
		return fmt.Sprintf("bcc: invalid %s %s: %s", e.Option, e.Value, e.Reason)
	default:
		return fmt.Sprintf("bcc: invalid %s %s", e.Option, e.Value)
	}
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

// Spec describes a distributed training job at the level a library user
// thinks about it. Zero values select the documented defaults.
//
// Spec is also the control-plane wire format (EncodeSpec/DecodeSpec): every
// pure-data field carries its JSON name, and the process-local fields —
// Latency, Trace, Observer, StopWhen and checkpointing — are tagged "-" and
// refused by EncodeSpec when set.
type Spec struct {
	// --- learning problem (paper §III-C data model) ---
	// DataPoints is the number of raw training points d (default 100 per
	// example unit).
	DataPoints int `json:"data_points,omitempty"`
	// Dim is the feature dimension p (paper: 8000; default 200).
	Dim int `json:"dim,omitempty"`
	// Density, when in (0, 1), generates a SPARSE dataset (CSR storage,
	// each feature nonzero with this probability) — the news20/RCV1-style
	// workload class; worker gradient cost drops from O(rows*p) to O(nnz).
	// 0 (default) and 1 keep the paper's dense generator.
	Density float64 `json:"density,omitempty"`

	// --- distribution ---
	// Examples is m, the number of coded work units.
	Examples int `json:"examples,omitempty"`
	// Workers is n.
	Workers int `json:"workers,omitempty"`
	// Load is r, the per-worker computational load in units.
	Load int `json:"load,omitempty"`
	// Scheme names the gradient code (default SchemeBCC). Untyped string
	// constants assign directly: Spec{Scheme: "bcc"} keeps working.
	Scheme Scheme `json:"scheme,omitempty"`
	// AdaptRedundancy enables the built-in straggler-tracking redundancy
	// controller: every iteration the engine retunes the active level of the
	// nested gradient code to the cheapest one whose decode threshold covers
	// the observed straggler tail with a safety margin. Requires
	// Scheme == SchemeNested (the only Retunable scheme). Controller
	// decisions are a pure function of (seed, fault scenario, arrival
	// history), so adaptive runs stay bit-identical across runtimes.
	AdaptRedundancy bool `json:"adapt_redundancy,omitempty"`
	// AdaptWindow is the controller's decrease patience: how many consecutive
	// over-provisioned iterations it observes before stepping the level down
	// by one (0 = default 3). Only meaningful with AdaptRedundancy.
	AdaptWindow int `json:"adapt_window,omitempty"`

	// --- optimization ---
	// Iterations of distributed gradient descent (paper: 100).
	Iterations int `json:"iterations,omitempty"`
	// StepSize is the constant learning rate (default 0.5).
	StepSize float64 `json:"step_size,omitempty"`
	// Optimizer is OptimizerNesterov (default, as in the paper) or
	// OptimizerGD.
	Optimizer Optimizer `json:"optimizer,omitempty"`

	// --- environment ---
	// Seed drives all randomness; runs with equal specs and seeds are
	// bit-for-bit reproducible on the sim runtime.
	Seed uint64 `json:"seed,omitempty"`
	// Latency injects straggler behaviour (nil = no delays).
	Latency cluster.Latency `json:"-"`
	// IngressPerUnit is the master's per-message-unit drain cost.
	IngressPerUnit float64 `json:"ingress_per_unit,omitempty"`
	// Faults, if non-nil, deterministically schedules worker fault events —
	// crashes/restarts (a worker that never responds is a crash at iteration
	// 0), slowdown windows, partitions, drop bursts and i.i.d. drops
	// (Plan.Drop) — replayed identically on every runtime (see
	// internal/faults). Its N must equal Workers. Takes precedence over
	// FaultScenario.
	Faults *faults.Plan `json:"faults,omitempty"`
	// FaultScenario names a fault scenario from the library (faults.Names():
	// steady, flaky-tail, rolling-restart, partition, burst-drop,
	// slow-decile); the plan is built for Workers workers at NewJob time.
	FaultScenario string `json:"fault_scenario,omitempty"`
	// FaultSeed seeds the scenario's probabilistic rules (0 = derived from
	// Seed), so the same spec replays the same fault sequence everywhere; see
	// FaultPlan.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Runtime is RuntimeSim (default), RuntimeLive (goroutine workers
	// speaking the wire protocol over in-process pipes) or RuntimeTCP (the
	// same protocol over loopback sockets). All three run the same master
	// engine; live and tcp share one fabric and differ only in the carrier.
	Runtime Runtime `json:"runtime,omitempty"`
	// Payload selects the comm-plane payload codec: PayloadRaw64 (default,
	// lossless), PayloadF32 or PayloadTopK. Lossy codecs are deterministic:
	// the same spec + seed + codec gives bit-identical results on every
	// runtime.
	Payload Payload `json:"payload,omitempty"`
	// TopK is the number of coordinates kept per reply vector under
	// PayloadTopK (0 = Dim/16 rounded up, the K = p/16 operating point);
	// setting it with any other codec is an error.
	TopK int `json:"top_k,omitempty"`
	// WireChunk is the wire framing chunk size in float64 elements (0 =
	// default 512). It has no effect: the bytes and the results are the same
	// for every chunk size.
	//
	// Deprecated: leave WireChunk zero; it remains only until the bench
	// workloads stop setting it.
	WireChunk int `json:"wire_chunk,omitempty"`
	// TimeScale converts virtual seconds to real sleeps on live runtimes.
	TimeScale float64 `json:"time_scale,omitempty"`
	// LossEvery records full training loss every k iterations (0 = never).
	LossEvery int `json:"loss_every,omitempty"`
	// Trace records per-iteration worker timelines (sim runtime only).
	Trace *trace.Recorder `json:"-"`

	// --- run lifecycle ---
	// Observer, if non-nil, receives per-iteration callbacks from the
	// engine loop on every runtime (see cluster.Observer).
	Observer cluster.Observer `json:"-"`
	// StopWhen, if non-nil, ends the run early (no error) after the first
	// iteration whose final stats satisfy it.
	StopWhen func(cluster.IterStats) bool `json:"-"`
	// GradNormTol, if positive, ends the run early once the decoded
	// gradient's Euclidean norm falls to or below this tolerance. Composes
	// with StopWhen (either condition stops).
	GradNormTol float64 `json:"grad_norm_tol,omitempty"`
	// CheckpointEvery, if positive together with CheckpointPath, writes an
	// optimizer checkpoint to CheckpointPath after every CheckpointEvery-th
	// iteration (atomically; see Job.Checkpoint). The stored completed
	// count is cumulative: this run's finished iterations plus any
	// Job.Resumed base set by RestoreCheckpoint.
	CheckpointEvery int `json:"-"`
	// CheckpointPath is where periodic checkpoints are written.
	CheckpointPath string `json:"-"`
}

func (s *Spec) withDefaults() Spec {
	out := *s
	if out.Examples == 0 {
		out.Examples = 20
	}
	if out.Workers == 0 {
		out.Workers = out.Examples
	}
	if out.Load == 0 {
		out.Load = 1
	}
	if out.DataPoints == 0 {
		out.DataPoints = 100 * out.Examples
	}
	if out.Dim == 0 {
		out.Dim = 200
	}
	if out.Scheme == "" {
		out.Scheme = SchemeBCC
	}
	if out.Scheme == SchemeCyclicMDS {
		out.Scheme = SchemeCyclicRep
	}
	if out.Iterations == 0 {
		out.Iterations = 100
	}
	if out.StepSize == 0 {
		out.StepSize = 0.5
	}
	if out.Optimizer == "" {
		out.Optimizer = OptimizerNesterov
	}
	if out.Runtime == "" {
		out.Runtime = RuntimeSim
	}
	if out.Payload == "" {
		out.Payload = PayloadRaw64
	}
	return out
}

// comm lowers the spec's payload knobs to the cluster layer's options.
func (s *Spec) comm() cluster.CommOptions {
	return cluster.CommOptions{Payload: string(s.Payload), TopK: s.TopK, Chunk: s.WireChunk}
}

// validateOptions fails fast on misconfigured options, after defaults are
// applied. Every failure is an *OptionError.
func (s *Spec) validateOptions() error {
	if err := s.Scheme.Validate(); err != nil {
		return err
	}
	if err := s.Optimizer.Validate(); err != nil {
		return err
	}
	if err := s.Runtime.Validate(); err != nil {
		return err
	}
	if s.Iterations < 0 {
		return &OptionError{Option: "Iterations", Value: fmt.Sprintf("%d", s.Iterations), Reason: "must be non-negative"}
	}
	if s.IngressPerUnit < 0 || math.IsNaN(s.IngressPerUnit) {
		return &OptionError{Option: "IngressPerUnit", Value: fmt.Sprintf("%v", s.IngressPerUnit), Reason: "must be non-negative"}
	}
	if s.AdaptRedundancy && s.Scheme != SchemeNested {
		return &OptionError{Option: "AdaptRedundancy", Value: "true",
			Reason: fmt.Sprintf("requires Scheme %q (the only retunable scheme), got %q", SchemeNested, s.Scheme)}
	}
	if s.AdaptWindow < 0 {
		return &OptionError{Option: "AdaptWindow", Value: fmt.Sprintf("%d", s.AdaptWindow), Reason: "must be non-negative"}
	}
	if s.AdaptWindow > 0 && !s.AdaptRedundancy {
		return &OptionError{Option: "AdaptWindow", Value: fmt.Sprintf("%d", s.AdaptWindow), Reason: "set without AdaptRedundancy"}
	}
	if s.Density < 0 || s.Density > 1 {
		return &OptionError{Option: "Density", Value: fmt.Sprintf("%v", s.Density), Reason: "outside [0, 1]"}
	}
	if s.CheckpointEvery < 0 {
		return &OptionError{Option: "CheckpointEvery", Value: fmt.Sprintf("%d", s.CheckpointEvery), Reason: "must be non-negative"}
	}
	if s.CheckpointEvery > 0 && s.CheckpointPath == "" {
		return &OptionError{Option: "CheckpointPath", Value: `""`, Reason: "required when CheckpointEvery > 0"}
	}
	if s.GradNormTol < 0 {
		return &OptionError{Option: "GradNormTol", Value: fmt.Sprintf("%v", s.GradNormTol), Reason: "must be non-negative"}
	}
	if err := s.Payload.Validate(); err != nil {
		return err
	}
	if err := s.comm().Validate(s.Dim); err != nil {
		// The codec name itself is valid (checked above), so this is a
		// parameter problem: attribute it to the offending knob.
		opt, val := "TopK", fmt.Sprintf("%d", s.TopK)
		if s.WireChunk < 0 {
			opt, val = "WireChunk", fmt.Sprintf("%d", s.WireChunk)
		}
		return &OptionError{Option: opt, Value: val, Reason: err.Error()}
	}
	if s.FaultScenario != "" && !faults.Known(s.FaultScenario) {
		return &OptionError{Option: "FaultScenario", Value: s.FaultScenario, Known: faults.Names()}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return &OptionError{Option: "Faults", Value: "plan", Reason: err.Error()}
		}
		if s.Faults.N != s.Workers {
			return &OptionError{Option: "Faults", Value: "plan",
				Reason: fmt.Sprintf("built for %d workers, spec has Workers=%d", s.Faults.N, s.Workers)}
		}
	}
	return nil
}

// FaultPlan resolves the fault plan a job built from the spec runs under:
// Faults itself when set, else the FaultScenario built for Workers workers,
// else an empty plan. A scenario's probabilistic rules and Plan.Drop draw
// from the plan seed: FaultSeed, or a seed derived from Seed when FaultSeed
// is 0. A fresh plan (scenario or empty) is the caller's to extend, which is
// how bcctrain's -dead and -drop build theirs.
func (s Spec) FaultPlan() (*faults.Plan, error) {
	s = s.withDefaults()
	if s.Faults != nil {
		return s.Faults, nil
	}
	// A fixed non-zero mix keeps the derived fault stream independent of the
	// data/placement streams while staying a pure function of Seed.
	seed := s.FaultSeed
	if seed == 0 {
		seed = s.Seed ^ 0xfa417_5eed
	}
	if s.FaultScenario == "" {
		return &faults.Plan{N: s.Workers, Seed: seed}, nil
	}
	fp, err := faults.Scenario(s.FaultScenario, s.Workers, seed)
	if err != nil {
		return nil, fmt.Errorf("core: fault scenario %s: %w", s.FaultScenario, err)
	}
	return fp, nil
}

// ---------------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------------

// Job is a fully-materialized training run: data generated, placement
// planned, optimizer initialized. Build with NewJob, execute with Run or
// RunContext.
type Job struct {
	Spec  Spec
	Data  *dataset.Dataset
	Model *model.Logistic
	Plan  coding.Plan
	Units [][]int
	Opt   optimize.Optimizer
	// Faults is the resolved fault plan of the run (Spec.FaultPlan): never
	// nil, empty when the spec schedules no faults.
	Faults *faults.Plan
	// Resumed is the number of iterations already completed against this
	// job's optimizer state before the next run — set by RestoreCheckpoint,
	// zero for a fresh job. Periodic checkpoints record Resumed plus the
	// current run's completed count, so a resumed run's checkpoints carry
	// the true cumulative progress.
	Resumed int
}

// NewJob generates the synthetic dataset and materializes the job. All
// randomness (data, placement, latency seeds if the caller builds them from
// the same stream) derives from spec.Seed. Option misconfiguration —
// unknown scheme/optimizer/runtime, an invalid or mis-sized fault plan —
// fails here with an *OptionError rather than at Run time.
func NewJob(spec Spec) (*Job, error) {
	s := spec.withDefaults()
	if err := s.validateOptions(); err != nil {
		return nil, err
	}
	rng := rngutil.New(s.Seed)
	ds, err := dataset.Generate(dataset.Config{
		N:       s.DataPoints,
		Dim:     s.Dim,
		Density: s.Density,
	}, rng.Split())
	if err != nil {
		return nil, err
	}
	return NewJobWithData(s, ds, rng.Split())
}

// NewJobWithData materializes a job over a caller-provided dataset; rng
// drives the placement randomness.
func NewJobWithData(spec Spec, ds *dataset.Dataset, rng *rngutil.RNG) (*Job, error) {
	s := spec.withDefaults()
	if err := s.validateOptions(); err != nil {
		return nil, err
	}
	units, err := ds.Units(s.Examples)
	if err != nil {
		return nil, err
	}
	sch, err := coding.Lookup(string(s.Scheme))
	if err != nil {
		return nil, err
	}
	plan, err := sch.Plan(s.Examples, s.Workers, s.Load, rng)
	if err != nil {
		return nil, fmt.Errorf("core: planning %s: %w", s.Scheme, err)
	}
	mod := model.NewLogistic(ds)
	fp, err := s.FaultPlan()
	if err != nil {
		return nil, err
	}
	// validateOptions above guarantees the registry entry exists.
	build := optimizers[s.Optimizer]
	return &Job{Spec: s, Data: ds, Model: mod, Plan: plan, Units: units, Opt: build(mod.Dim(), s.StepSize), Faults: fp}, nil
}

// clusterConfig lowers the spec to the engine's Config, wiring the lifecycle
// hooks: the observer, the early-stop predicate (user StopWhen merged with
// the gradient-norm tolerance) and the periodic checkpoint callback.
func (j *Job) clusterConfig() *cluster.Config {
	stop := j.Spec.StopWhen
	if tol := j.Spec.GradNormTol; tol > 0 {
		user := stop
		stop = func(st cluster.IterStats) bool {
			return st.GradNorm <= tol || (user != nil && user(st))
		}
	}
	var ckpt func(completed int) error
	if j.Spec.CheckpointEvery > 0 && j.Spec.CheckpointPath != "" {
		path := j.Spec.CheckpointPath
		ckpt = func(completed int) error { return j.Checkpoint(path, j.Resumed+completed) }
	}
	var ctl cluster.Controller
	if j.Spec.AdaptRedundancy {
		// A fresh controller per run: its decrease-patience counter starts
		// from zero, so resumed and fresh runs see the same decision rule.
		ctl = &cluster.AIMDController{Window: j.Spec.AdaptWindow}
	}
	return &cluster.Config{
		Plan:            j.Plan,
		Model:           j.Model,
		Units:           j.Units,
		Opt:             j.Opt,
		Iterations:      j.Spec.Iterations,
		Latency:         j.Spec.Latency,
		IngressPerUnit:  j.Spec.IngressPerUnit,
		Faults:          j.Faults,
		Controller:      ctl,
		Comm:            j.Spec.comm(),
		LossEvery:       j.Spec.LossEvery,
		Trace:           j.Spec.Trace,
		Observer:        j.Spec.Observer,
		StopWhen:        stop,
		CheckpointEvery: j.Spec.CheckpointEvery,
		Checkpoint:      ckpt,
	}
}

// RunContext executes the job on the runtime selected by the spec, bounded
// by ctx: cancellation or deadline expiry ends the run between arrivals and
// returns the partial Result of the iterations already completed alongside
// ctx's error (errors.Is(err, context.Canceled) / context.DeadlineExceeded).
// Worker goroutines and TCP listeners of the live runtimes are torn down on
// every exit path.
func (j *Job) RunContext(ctx context.Context) (*cluster.Result, error) {
	run, ok := runtimes[j.Spec.Runtime]
	if !ok {
		return nil, &OptionError{Option: "Runtime", Value: string(j.Spec.Runtime), Known: optionNames(runtimes)}
	}
	return run(ctx, j.clusterConfig(), j.Spec)
}

// Run executes the job without a bounding context.
func (j *Job) Run() (*cluster.Result, error) { return j.RunContext(context.Background()) }

// Accuracy returns the trained model's accuracy on its own training data for
// a given weight vector (a convenience for examples and tests).
func (j *Job) Accuracy(w []float64) float64 { return j.Model.Accuracy(w) }

// Checkpoint writes the job's current optimizer state to path (atomically).
// completed is the number of iterations already run against this job. The
// file is one whole-model snapshot.
func (j *Job) Checkpoint(path string, completed int) error {
	snap, ok := j.Opt.(optimize.Snapshotter)
	if !ok {
		return fmt.Errorf("core: optimizer %q does not support checkpointing", j.Spec.Optimizer)
	}
	return checkpoint.Save(path, &checkpoint.State{
		Scheme:    string(j.Spec.Scheme),
		M:         j.Spec.Examples,
		N:         j.Spec.Workers,
		R:         j.Spec.Load,
		Dim:       j.Spec.Dim,
		Seed:      j.Spec.Seed,
		Completed: completed,
		Opt:       snap.Snapshot(),
	})
}

// RestoreCheckpoint loads path into the job after validating that the
// checkpoint belongs to a job with the identical topology and seed (same
// data and placement). It returns the completed-iteration count so the
// caller can shorten the remaining run, and records it in j.Resumed so that
// subsequent periodic checkpoints carry the cumulative count.
func (j *Job) RestoreCheckpoint(path string) (completed int, err error) {
	st, err := checkpoint.Load(path)
	if err != nil {
		return 0, err
	}
	if err := st.Matches(string(j.Spec.Scheme), j.Spec.Examples, j.Spec.Workers, j.Spec.Load, j.Spec.Dim, j.Spec.Seed); err != nil {
		return 0, err
	}
	if st.Completed < 0 {
		return 0, fmt.Errorf("core: checkpoint %s records %d completed iterations", path, st.Completed)
	}
	snap, ok := j.Opt.(optimize.Snapshotter)
	if !ok {
		return 0, fmt.Errorf("core: optimizer %q does not support checkpointing", j.Spec.Optimizer)
	}
	if err := snap.Restore(st.Opt); err != nil {
		return 0, err
	}
	j.Resumed = st.Completed
	return st.Completed, nil
}
