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
	SchemeCyclicMDS  Scheme = "cyclicmds"
	SchemeCyclicRep  Scheme = "cyclicrep"
	SchemeFractional Scheme = "fractional"
	SchemeNested     Scheme = "nested"
	SchemeRandomized Scheme = "randomized"
	SchemeUncoded    Scheme = "uncoded"
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
// shared master engine over one transport.
var runtimes = map[Runtime]func(ctx context.Context, cfg *cluster.Config, spec Spec) (*cluster.Result, error){
	RuntimeSim: func(ctx context.Context, cfg *cluster.Config, _ Spec) (*cluster.Result, error) {
		return cluster.RunSimContext(ctx, cfg)
	},
	RuntimeLive: func(ctx context.Context, cfg *cluster.Config, spec Spec) (*cluster.Result, error) {
		return cluster.RunLiveContext(ctx, cfg, cluster.LiveOptions{TimeScale: spec.TimeScale})
	},
	RuntimeTCP: func(ctx context.Context, cfg *cluster.Config, spec Spec) (*cluster.Result, error) {
		// Wire frames: the payload codec shrinks what actually crosses the
		// socket.
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
type Spec struct {
	// --- learning problem (paper §III-C data model) ---
	// DataPoints is the number of raw training points d (default 100 per
	// example unit).
	DataPoints int
	// Dim is the feature dimension p (paper: 8000; default 200).
	Dim int
	// Separation scales the class means (paper: 1.5).
	Separation float64
	// StandardLabels switches to P(y=+1)=sigma(x^T w*); default is the
	// paper's rule.
	StandardLabels bool
	// Lambda is the L2 regularization strength (paper: 0).
	Lambda float64
	// Density, when in (0, 1), generates a SPARSE dataset (CSR storage,
	// each feature nonzero with this probability) — the news20/RCV1-style
	// workload class; worker gradient cost drops from O(rows*p) to O(nnz).
	// 0 (default) and 1 keep the paper's dense generator.
	Density float64

	// --- distribution ---
	// Examples is m, the number of coded work units.
	Examples int
	// Workers is n.
	Workers int
	// Load is r, the per-worker computational load in units.
	Load int
	// Scheme names the gradient code (default SchemeBCC). Untyped string
	// constants assign directly: Spec{Scheme: "bcc"} keeps working.
	Scheme Scheme
	// AdaptRedundancy enables the built-in straggler-tracking redundancy
	// controller: every iteration the engine retunes the active level of the
	// nested gradient code to the cheapest one whose decode threshold covers
	// the observed straggler tail with a safety margin. Requires
	// Scheme == SchemeNested (the only Retunable scheme). Controller
	// decisions are a pure function of (seed, fault scenario, arrival
	// history), so adaptive runs stay bit-identical across runtimes.
	AdaptRedundancy bool
	// AdaptWindow is the controller's decrease patience: how many consecutive
	// over-provisioned iterations it observes before stepping the level down
	// by one (0 = default 3). Only meaningful with AdaptRedundancy.
	AdaptWindow int

	// --- optimization ---
	// Iterations of distributed gradient descent (paper: 100).
	Iterations int
	// StepSize is the constant learning rate (default 0.5).
	StepSize float64
	// Optimizer is OptimizerNesterov (default, as in the paper) or
	// OptimizerGD.
	Optimizer Optimizer

	// --- environment ---
	// Seed drives all randomness; runs with equal specs and seeds are
	// bit-for-bit reproducible on the sim runtime.
	Seed uint64
	// Latency injects straggler behaviour (nil = no delays).
	Latency cluster.Latency
	// IngressPerUnit is the master's per-message-unit drain cost.
	IngressPerUnit float64
	// Faults, if non-nil, deterministically schedules worker fault events —
	// crashes/restarts (a worker that never responds is a crash at iteration
	// 0), slowdown windows, partitions, drop bursts and i.i.d. drops
	// (Plan.Drop) — replayed identically on every runtime (see
	// internal/faults). Its N must equal Workers. Takes precedence over
	// FaultScenario.
	Faults *faults.Plan
	// FaultScenario names a fault scenario from the library (faults.Names():
	// steady, flaky-tail, rolling-restart, partition, burst-drop,
	// slow-decile); the plan is built for Workers workers at NewJob time.
	FaultScenario string
	// FaultSeed seeds the scenario's probabilistic rules (0 = derived from
	// Seed), so the same spec replays the same fault sequence everywhere; see
	// FaultPlan.
	FaultSeed uint64
	// ComputeParallelism fans each worker's per-example gradient
	// computations out over this many goroutines (0/1 = serial); results
	// are bit-for-bit identical to the serial path.
	ComputeParallelism int
	// MasterShards partitions the master's data plane coordinate-wise into
	// this many contiguous shards (0/1 = unsharded): each shard decodes,
	// scales and updates its own slice of the model concurrently while a thin
	// coordinator keeps iteration control centralized. On the TCP runtime the
	// shards additionally get their own listeners and workers scatter each
	// reply's coordinate slices to them (the scatter data plane). Results are
	// bit-for-bit identical to the unsharded run on every runtime; see
	// cluster.Config.MasterShards.
	MasterShards int
	// Runtime is RuntimeSim (default), RuntimeLive (goroutines+channels)
	// or RuntimeTCP (goroutines over loopback sockets). All three run the
	// same master engine over different transports.
	Runtime Runtime
	// Payload selects the comm-plane payload codec: PayloadRaw64 (default,
	// lossless), PayloadF32 or PayloadTopK. Lossy codecs are deterministic:
	// the same spec + seed + codec gives bit-identical results on every
	// runtime.
	Payload Payload
	// TopK is the number of coordinates kept per reply vector under
	// PayloadTopK (0 = Dim/16 rounded up, the K = p/16 operating point);
	// setting it with any other codec is an error.
	TopK int
	// WireChunk is the wire framing chunk size in float64 elements for the
	// TCP runtime's frames (0 = default 512). Chunking changes streaming
	// granularity only, never the bytes or the results.
	WireChunk int
	// TimeScale converts virtual seconds to real sleeps on live runtimes.
	TimeScale float64
	// LossEvery records full training loss every k iterations (0 = never).
	LossEvery int
	// Trace records per-iteration worker timelines (sim runtime only).
	Trace *trace.Recorder

	// --- run lifecycle ---
	// Observer, if non-nil, receives per-iteration callbacks from the
	// engine loop on every runtime (see cluster.Observer).
	Observer cluster.Observer
	// StopWhen, if non-nil, ends the run early (no error) after the first
	// iteration whose final stats satisfy it.
	StopWhen func(cluster.IterStats) bool
	// GradNormTol, if positive, ends the run early once the decoded
	// gradient's Euclidean norm falls to or below this tolerance. Composes
	// with StopWhen (either condition stops).
	GradNormTol float64
	// CheckpointEvery, if positive together with CheckpointPath, writes an
	// optimizer checkpoint to CheckpointPath after every CheckpointEvery-th
	// iteration (atomically; see Job.Checkpoint). The stored completed
	// count is cumulative: this run's finished iterations plus any
	// Job.Resumed base set by RestoreCheckpoint.
	CheckpointEvery int
	// CheckpointPath is where periodic checkpoints are written.
	CheckpointPath string
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
	if out.Separation == 0 {
		out.Separation = 1.5
	}
	if out.Scheme == "" {
		out.Scheme = SchemeBCC
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
	if s.ComputeParallelism < 0 {
		return &OptionError{Option: "ComputeParallelism", Value: fmt.Sprintf("%d", s.ComputeParallelism), Reason: "must be non-negative"}
	}
	if s.MasterShards < 0 {
		return &OptionError{Option: "MasterShards", Value: fmt.Sprintf("%d", s.MasterShards), Reason: "must be non-negative"}
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
	if s.MasterShards > 1 {
		// The comm options resolved above, so MaxShards cannot fail here.
		if max, err := s.comm().MaxShards(s.Dim); err == nil && s.MasterShards > max {
			return &OptionError{Option: "MasterShards", Value: fmt.Sprintf("%d", s.MasterShards),
				Reason: fmt.Sprintf("exceeds the %d wire chunk(s) of a %d-dim model — the surplus shards would own empty slices yet still cost listeners and ports", max, s.Dim)}
		}
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
		N:              s.DataPoints,
		Dim:            s.Dim,
		Separation:     s.Separation,
		StandardLabels: s.StandardLabels,
		Density:        s.Density,
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
	mod := &model.Logistic{Data: ds, Lambda: s.Lambda}
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
		// Shard-aware: with MasterShards > 1 the periodic checkpoint
		// follows the engine's partition, one file per shard.
		ckpt = func(completed int) error { return j.CheckpointSharded(path, j.Resumed+completed) }
	}
	var ctl cluster.Controller
	if j.Spec.AdaptRedundancy {
		// A fresh controller per run: its decrease-patience counter starts
		// from zero, so resumed and fresh runs see the same decision rule.
		ctl = &cluster.AIMDController{Window: j.Spec.AdaptWindow}
	}
	return &cluster.Config{
		Plan:               j.Plan,
		Model:              j.Model,
		Units:              j.Units,
		Opt:                j.Opt,
		Iterations:         j.Spec.Iterations,
		Latency:            j.Spec.Latency,
		IngressPerUnit:     j.Spec.IngressPerUnit,
		Faults:             j.Faults,
		ComputeParallelism: j.Spec.ComputeParallelism,
		MasterShards:       j.Spec.MasterShards,
		Controller:         ctl,
		Comm:               j.Spec.comm(),
		LossEvery:          j.Spec.LossEvery,
		Trace:              j.Spec.Trace,
		Observer:           j.Spec.Observer,
		StopWhen:           stop,
		CheckpointEvery:    j.Spec.CheckpointEvery,
		Checkpoint:         ckpt,
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
// completed is the number of iterations already run against this job.
func (j *Job) Checkpoint(path string, completed int) error {
	st, err := j.snapshotState(completed)
	if err != nil {
		return err
	}
	return checkpoint.Save(path, st)
}

// CheckpointSharded writes the job's optimizer state as one self-describing
// file per master shard — path.shard0 … path.shard{M-1}, M =
// Spec.MasterShards — following the engine's coordinate partition
// (Config.ShardMap), so each shard persists exactly the slice it owns.
// Scalar optimizer state is replicated into every file; a job with
// MasterShards < 2 falls back to the single-file Checkpoint.
func (j *Job) CheckpointSharded(path string, completed int) error {
	shards := j.Spec.MasterShards
	if shards < 2 {
		return j.Checkpoint(path, completed)
	}
	st, err := j.snapshotState(completed)
	if err != nil {
		return err
	}
	bounds := j.clusterConfig().ShardMap()
	for s := 0; s < shards; s++ {
		sh, err := st.SliceOf(s, shards, bounds[s], bounds[s+1])
		if err != nil {
			return err
		}
		if err := checkpoint.SaveShard(checkpoint.ShardPath(path, s), sh); err != nil {
			return err
		}
	}
	return nil
}

func (j *Job) snapshotState(completed int) (*checkpoint.State, error) {
	snap, ok := j.Opt.(optimize.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: optimizer %q does not support checkpointing", j.Spec.Optimizer)
	}
	return &checkpoint.State{
		Scheme:    string(j.Spec.Scheme),
		M:         j.Spec.Examples,
		N:         j.Spec.Workers,
		R:         j.Spec.Load,
		Dim:       j.Spec.Dim,
		Seed:      j.Spec.Seed,
		Completed: completed,
		Opt:       snap.Snapshot(),
	}, nil
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
	return j.restoreState(st)
}

// RestoreShardedCheckpoint loads the per-shard files written by
// CheckpointSharded (path.shard0 … path.shard{M-1}) and merges them into
// the full optimizer state. The shard map — count and coordinate ranges —
// is read from the files themselves and checked against the job's own
// partition up front, so a resume whose MasterShards or WireChunk flags
// disagree with the checkpoint fails with a message naming the mismatch
// instead of a late merge error (or a silently different partition). The
// merge additionally rejects torn sets — a missing or duplicated shard,
// coordinate gaps, or shards saved at different iterations or by different
// jobs — before the usual topology validation. A job with MasterShards < 2
// falls back to the single-file restore.
func (j *Job) RestoreShardedCheckpoint(path string) (completed int, err error) {
	shards := j.Spec.MasterShards
	if shards < 2 {
		return j.RestoreCheckpoint(path)
	}
	// Shard 0 carries the authoritative split; trust it over the flags.
	first, err := checkpoint.LoadShard(checkpoint.ShardPath(path, 0))
	if err != nil {
		return 0, err
	}
	if first.Shards != shards {
		return 0, fmt.Errorf("core: checkpoint %s was split into %d shard(s), but this job is configured with MasterShards=%d — rerun with the shard count the checkpoint was written with",
			path, first.Shards, shards)
	}
	bounds := j.clusterConfig().ShardMap()
	parts := make([]*checkpoint.Shard, shards)
	parts[0] = first
	for s := 1; s < shards; s++ {
		if parts[s], err = checkpoint.LoadShard(checkpoint.ShardPath(path, s)); err != nil {
			return 0, err
		}
	}
	for s, sh := range parts {
		if sh.Lo != bounds[s] || sh.Hi != bounds[s+1] {
			return 0, fmt.Errorf("core: checkpoint shard %d owns [%d,%d) but this job's shard map assigns [%d,%d) — the checkpoint was written under a different wire chunk size or model dimension",
				s, sh.Lo, sh.Hi, bounds[s], bounds[s+1])
		}
	}
	st, err := checkpoint.Merge(parts)
	if err != nil {
		return 0, err
	}
	return j.restoreState(st)
}

func (j *Job) restoreState(st *checkpoint.State) (completed int, err error) {
	if err := st.Matches(string(j.Spec.Scheme), j.Spec.Examples, j.Spec.Workers, j.Spec.Load, j.Spec.Dim, j.Spec.Seed); err != nil {
		return 0, err
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
