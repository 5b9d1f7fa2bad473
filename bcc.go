package bcc

import (
	"context"
	"io"

	"bcc/internal/cluster"
	"bcc/internal/coding"
	"bcc/internal/core"
	"bcc/internal/coupon"
	"bcc/internal/dataset"
	"bcc/internal/experiments"
	"bcc/internal/faults"
	"bcc/internal/hetero"
	"bcc/internal/rngutil"
	"bcc/internal/service"
	"bcc/internal/trace"
	"bcc/internal/vecmath"
)

// ---------------------------------------------------------------------------
// Training jobs
// ---------------------------------------------------------------------------

// Spec describes a distributed training job; see core.Spec for the full
// field documentation. Zero values select sensible defaults (SchemeBCC,
// Nesterov optimizer, the sim runtime). All runtimes drive the same master
// engine over different transports, and workers always drop work for a
// query the master has moved past. The run-lifecycle fields — Observer,
// StopWhen, GradNormTol, CheckpointEvery/CheckpointPath, Faults,
// ComputeParallelism — are honoured identically on every runtime, and
// Density switches the synthetic generator to sparse CSR features (worker
// gradients then cost O(nnz) instead of O(rows·p)). MasterShards > 1 is the
// one way to split the master's work across cores: it partitions the decode
// + update data plane into M shards owning contiguous coordinate slices —
// bit-identical results on every runtime, with per-shard measurements in
// Result.Shards.
type Spec = core.Spec

// Job is a materialized training run; create with NewJob, execute with Run
// or RunContext (cancellable, deadline-bounded).
type Job = core.Job

// Result aggregates a run: final weights, per-iteration stats, timing
// totals (TotalWall up to each decode instant, TotalElapsed up to the end of
// each round's straggler tail), and the empirical recovery threshold and
// communication load.
type Result = cluster.Result

// IterStats is one iteration's measurements (wall/comm/comp split, workers
// heard, units and bytes received).
type IterStats = cluster.IterStats

// ShardStats is one master shard's cumulative measurements on a sharded run
// (Spec.MasterShards > 1): the owned coordinate range [Lo, Hi), decode time,
// bytes attributed to the slice, and queue depth. Reported in Result.Shards
// and, for service jobs, in JobStatus.Shards and the /metrics gauges.
type ShardStats = cluster.ShardStats

// ErrStalled is returned when every alive worker has reported and the
// gradient is still unrecoverable (too many failures for the scheme's
// redundancy). Test with errors.Is.
var ErrStalled = cluster.ErrStalled

// ErrBelowThreshold is returned when the fault plan (crashes, partitions,
// drop bursts or i.i.d. drops) leaves an iteration with fewer reachable
// workers than the scheme can possibly decode from: the run degrades
// explicitly before the doomed iteration, keeping the completed iterations
// as a partial Result. It also matches ErrStalled under errors.Is.
var ErrBelowThreshold = cluster.ErrBelowThreshold

// NewJob generates the synthetic dataset of the paper's §III-C and
// materializes a training job for the given spec. Misconfigured options —
// unknown Scheme/Optimizer/Runtime, an invalid or mis-sized Faults plan —
// fail here with an *OptionError instead of deep inside the run.
func NewJob(spec Spec) (*Job, error) { return core.NewJob(spec) }

// Train is the one-call convenience: build the job and run it.
func Train(spec Spec) (*Result, error) { return TrainContext(context.Background(), spec) }

// TrainContext is Train bounded by a context: cancellation or deadline
// expiry ends the run early and returns the partial Result of the
// iterations already completed alongside ctx's error.
func TrainContext(ctx context.Context, spec Spec) (*Result, error) {
	job, err := core.NewJob(spec)
	if err != nil {
		return nil, err
	}
	return job.RunContext(ctx)
}

// ---------------------------------------------------------------------------
// Datasets: sparse storage and real data
// ---------------------------------------------------------------------------

// Dataset is a fixed design matrix with +-1 labels; the feature matrix is
// an AnyMatrix (dense or CSR — gradients cost O(nnz) on the latter).
type Dataset = dataset.Dataset

// AnyMatrix is the matrix abstraction the gradient kernels run against;
// DenseMatrix and CSRMatrix implement it.
type AnyMatrix = vecmath.AnyMatrix

// DenseMatrix is row-major dense storage.
type DenseMatrix = vecmath.Matrix

// CSRMatrix is compressed-sparse-row storage with O(nnz) kernels.
type CSRMatrix = vecmath.CSR

// LoadLIBSVM reads a LIBSVM-format sparse dataset ("label idx:val ...",
// 1-based ascending indices) straight into CSR storage. Labels are mapped
// to {-1, +1} by sign. Use PadDim if the model dimension exceeds the
// largest index present in the file.
func LoadLIBSVM(r io.Reader) (*Dataset, error) { return dataset.LoadLIBSVM(r) }

// WriteLIBSVM serializes a dataset in LIBSVM format (O(nnz) for CSR data).
func WriteLIBSVM(w io.Writer, d *Dataset) error { return dataset.WriteLIBSVM(w, d) }

// PadDim widens a loaded dataset's feature dimension to at least dim.
func PadDim(d *Dataset, dim int) *Dataset { return dataset.PadDim(d, dim) }

// NewJobWithData materializes a training job over a caller-provided dataset
// (e.g. one loaded with LoadLIBSVM) instead of the synthetic generator; the
// placement randomness derives from spec.Seed. Spec.DataPoints/Dim/Density
// are ignored in favour of the dataset's own shape.
func NewJobWithData(spec Spec, ds *Dataset) (*Job, error) {
	rng := rngutil.New(spec.Seed)
	rng.Split() // data stream (unused here); keeps placement aligned with NewJob
	return core.NewJobWithData(spec, ds, rng.Split())
}

// ---------------------------------------------------------------------------
// Run lifecycle: typed options, observers, early stopping
// ---------------------------------------------------------------------------

// Scheme, Optimizer and Runtime are typed option values for the Spec.
// Untyped string constants still assign directly (Spec{Scheme: "bcc"}
// compiles unchanged); the typed constants below make valid values
// discoverable and let Validate/NewJob reject misconfiguration with one
// error shape, *OptionError.
type (
	// Scheme names a registered gradient-coding scheme.
	Scheme = core.Scheme
	// Optimizer names a registered update rule.
	Optimizer = core.Optimizer
	// Runtime names a registered execution substrate.
	Runtime = core.Runtime
	// Payload names a comm-plane payload codec.
	Payload = core.Payload
)

// The registered gradient-coding schemes.
const (
	SchemeBCC        = core.SchemeBCC
	SchemeBCCApprox  = core.SchemeBCCApprox
	SchemeBCCMulti   = core.SchemeBCCMulti
	SchemeCyclicMDS  = core.SchemeCyclicMDS
	SchemeCyclicRep  = core.SchemeCyclicRep
	SchemeFractional = core.SchemeFractional
	SchemeNested     = core.SchemeNested
	SchemeRandomized = core.SchemeRandomized
	SchemeUncoded    = core.SchemeUncoded
)

// The registered optimizers.
const (
	OptimizerNesterov = core.OptimizerNesterov
	OptimizerGD       = core.OptimizerGD
)

// The registered runtimes.
const (
	RuntimeSim  = core.RuntimeSim
	RuntimeLive = core.RuntimeLive
	RuntimeTCP  = core.RuntimeTCP
)

// The registered payload codecs (Spec.Payload): raw64 is the lossless
// default; f32 and topk trade gradient precision for wire bytes while
// staying bit-for-bit deterministic across runtimes.
const (
	PayloadRaw64 = core.PayloadRaw64
	PayloadF32   = core.PayloadF32
	PayloadTopK  = core.PayloadTopK
)

// OptionError reports a Spec field holding an invalid value (unknown
// scheme/optimizer/runtime name, out-of-range knob). Retrieve with
// errors.As to inspect the field name and the known values.
type OptionError = core.OptionError

// Optimizers lists the registered optimizer names.
func Optimizers() []Optimizer { return core.Optimizers() }

// Runtimes lists the registered runtime names.
func Runtimes() []Runtime { return core.Runtimes() }

// Payloads lists the registered payload codec names.
func Payloads() []Payload { return core.Payloads() }

// Observer receives lifecycle callbacks — OnDecode at each iteration's
// decode instant, OnIteration after each completed iteration, OnRunEnd with
// the final (possibly partial) Result — synchronously from the master
// engine, identically on every runtime. Set it on Spec.Observer.
type Observer = cluster.Observer

// ObserverFuncs adapts free functions to Observer; nil fields are no-ops.
type ObserverFuncs = cluster.ObserverFuncs

// DecodeEvent describes the instant an iteration's gradient became
// decodable: the paper's "recovery threshold reached" moment.
type DecodeEvent = cluster.DecodeEvent

// CombineObservers fans callbacks out to several observers in order.
func CombineObservers(obs ...Observer) Observer { return cluster.MultiObserver(obs...) }

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

// FaultPlan deterministically schedules per-worker, per-iteration fault
// events — crashes and restarts (a dead worker is a crash at iteration 0),
// transient slowdown windows, master-side partition windows, correlated drop
// bursts and i.i.d. drops (Drop) — all derived from a single seed, so the
// sim, live and tcp runtimes replay identical fault sequences. It is the
// only fault input: set one on Spec.Faults (or name a library scenario via
// Spec.FaultScenario; Spec.FaultPlan resolves either). Scheduled events
// reach Spec.Observer through OnWorkerFault.
type FaultPlan = faults.Plan

// The FaultPlan rule types: FaultCrash takes a worker down at an iteration
// (permanently, or restarting after k iterations), FaultSlowdown multiplies
// a worker's compute/upload latency inside (optionally recurring) iteration
// windows, FaultPartition makes a contiguous worker range unreachable from
// the master for an iteration span, and FaultDropBursts injects correlated
// message-loss bursts.
type (
	FaultCrash      = faults.Crash
	FaultSlowdown   = faults.Slowdown
	FaultPartition  = faults.Partition
	FaultDropBursts = faults.DropBursts
)

// FaultEvent is one entry of a run's deterministic fault-event trace,
// delivered to Observer.OnWorkerFault.
type FaultEvent = faults.Event

// FaultScenarios lists the named fault-scenario library: steady,
// burst-drop, flaky-tail, partition, rolling-restart, slow-decile.
func FaultScenarios() []string { return faults.Names() }

// FaultScenario builds a library scenario's plan for an n-worker cluster;
// the schedule is fully determined by (name, n, seed). DescribeFaultScenario
// returns its one-line description.
func FaultScenario(name string, n int, seed uint64) (*FaultPlan, error) {
	return faults.Scenario(name, n, seed)
}

// DescribeFaultScenario returns a named scenario's one-line description
// ("" for unknown names).
func DescribeFaultScenario(name string) string { return faults.Describe(name) }

// ---------------------------------------------------------------------------
// Schemes
// ---------------------------------------------------------------------------

// SchemeBuilder builds gradient-code plans; Plan and Decoder are the
// placement and per-iteration decoding state (see the coding package docs).
// Breaking rename: this interface was previously exported as bcc.Scheme,
// which now names the typed option value above.
type SchemeBuilder = coding.Scheme

// Plan is a concrete data placement + code for (m, n, r).
type Plan = coding.Plan

// Decoder accumulates worker messages until the gradient sum is
// reconstructible.
type Decoder = coding.Decoder

// Message is one worker-to-master transmission.
type Message = coding.Message

// Schemes returns the names of all registered gradient-coding schemes:
// bcc, bccapprox, bccmulti, cyclicmds, cyclicrep, fractional, nested,
// randomized, uncoded.
func Schemes() []string { return coding.Names() }

// LookupScheme resolves a scheme builder by name.
func LookupScheme(name string) (SchemeBuilder, error) { return coding.Lookup(name) }

// Parameterizable scheme constructors, for callers who need more than the
// registry defaults. Build a Plan and install it on a Job (job.Plan = plan)
// before Run:
//
//	plan, _ := bcc.BCCScheme{Weights: w}.Plan(m, n, r, bcc.NewRNG(1))

// BCCScheme is the paper's scheme with optional skewed batch selection.
type BCCScheme = coding.BCC

// NestedScheme builds the adaptive family: cyclic-repetition gradient codes
// at every redundancy level 1..r over ONE shared data placement, switchable
// mid-run through the RetunablePlan capability (SchemeNested in a Spec).
type NestedScheme = coding.Nested

// RetunablePlan is the capability a multi-level plan exposes for mid-run
// redundancy switching: level bounds, the active level, SetLevel, and
// AtLevel views. NestedScheme plans implement it; Spec.AdaptRedundancy
// drives it automatically via the built-in controller.
type RetunablePlan = coding.Retunable

// Controller decides each iteration's redundancy level on a retunable plan
// from per-iteration telemetry; set one on cluster.Config.Controller when
// driving the engine directly, or use Spec.AdaptRedundancy for the built-in
// AIMD controller.
type Controller = cluster.Controller

// ControllerTelemetry is the per-iteration snapshot a Controller decides
// from: fleet health (down/lost/slow counts from the deterministic fault
// plan) plus the plan's level bounds and active level.
type ControllerTelemetry = cluster.Telemetry

// AIMDController is the built-in straggler-tracking controller: it jumps
// the redundancy level up immediately when the straggler tail grows and
// steps it down one level after Window consecutive over-provisioned
// iterations.
type AIMDController = cluster.AIMDController

// BCCApproxScheme stops at a fraction Phi of batch coverage and rescales —
// approximate gradients at a fraction of the threshold.
type BCCApproxScheme = coding.BCCApprox

// BCCMultiScheme is the K-batches-per-worker ablation variant.
type BCCMultiScheme = coding.BCCMulti

// GeneralizedBCCScheme is the §IV heterogeneous placement with per-worker
// loads (typically from HeteroCluster.Allocate).
type GeneralizedBCCScheme = coding.GeneralizedBCC

// PartitionedScheme is the §IV load-balancing baseline: disjoint blocks
// sized by per-worker loads, master waits for every holder.
type PartitionedScheme = coding.Partitioned

// ---------------------------------------------------------------------------
// Latency models and fabric knobs
// ---------------------------------------------------------------------------

// Latency injects per-iteration broadcast/compute/upload delays.
type Latency = cluster.Latency

// ZeroLatency is a Latency with no delays.
type ZeroLatency = cluster.Zero

// FixedLatency is a deterministic latency model for exact timing tests.
type FixedLatency = cluster.Fixed

// ShiftExpParams parameterizes the paper's shift-exponential worker model
// (eq. 15).
type ShiftExpParams = cluster.ShiftExpParams

// NewShiftExpLatency builds the shift-exponential model for n workers; pass
// one parameter set for a homogeneous cluster or n sets for a heterogeneous
// one.
func NewShiftExpLatency(n int, params []ShiftExpParams, rng *RNG) (Latency, error) {
	return cluster.NewShiftExp(n, params, rng)
}

// ---------------------------------------------------------------------------
// Coupon-collector theory (Theorem 1 machinery)
// ---------------------------------------------------------------------------

// Harmonic returns the n-th harmonic number H_n.
func Harmonic(n int) float64 { return coupon.Harmonic(n) }

// RecoveryThreshold returns K_BCC(r) = ceil(m/r) * H_{ceil(m/r)}, the
// paper's eq. (2).
func RecoveryThreshold(m, r int) float64 { return coupon.BCCRecoveryThreshold(m, r) }

// RecoveryLowerBound returns the converse bound K*(r) >= m/r (Theorem 1).
func RecoveryLowerBound(m, r int) float64 { return coupon.LowerBound(m, r) }

// RandomizedThreshold returns the simple randomized scheme's expected
// recovery threshold (paper eq. 5), computed exactly.
func RandomizedThreshold(m, r int) float64 { return coupon.RandomizedRecoveryThreshold(m, r) }

// ---------------------------------------------------------------------------
// Heterogeneous clusters (paper §IV)
// ---------------------------------------------------------------------------

// HeteroWorker is one worker's shift-exponential parameters (mu, a).
type HeteroWorker = hetero.WorkerParams

// HeteroCluster models a heterogeneous cluster and exposes the generalized
// BCC machinery: load allocation (P2), LB baseline, coverage simulation and
// the Theorem 2 bounds.
type HeteroCluster = hetero.Cluster

// HeteroAllocation is the allocator's solution to problem P2.
type HeteroAllocation = hetero.Allocation

// PaperFig5Cluster returns the exact 100-worker cluster of the paper's
// Fig. 5 evaluation.
func PaperFig5Cluster() HeteroCluster { return hetero.PaperFig5Cluster() }

// ---------------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------------

// ExperimentOptions tunes the reproduction harness (seeds, trial counts,
// full-size vs quick).
type ExperimentOptions = experiments.Options

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// Experiments lists the available experiment ids in presentation order
// (fig2, fig4, table1, table2, fig5, theorem1, theorem2, commload,
// fractional, tailbound).
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one paper artifact by id, rendering it to w
// (pass nil to skip rendering) and returning the table.
func RunExperiment(id string, opt ExperimentOptions, w io.Writer) (*ExperimentTable, error) {
	return experiments.Run(context.Background(), id, opt, w)
}

// RunExperimentContext is RunExperiment bounded by a context: cancellation
// aborts the experiment's training runs.
func RunExperimentContext(ctx context.Context, id string, opt ExperimentOptions, w io.Writer) (*ExperimentTable, error) {
	return experiments.Run(ctx, id, opt, w)
}

// RunAllExperiments regenerates every artifact in order.
func RunAllExperiments(opt ExperimentOptions, w io.Writer) ([]*ExperimentTable, error) {
	return experiments.RunAll(context.Background(), opt, w)
}

// RunAllExperimentsContext is RunAllExperiments bounded by a context.
func RunAllExperimentsContext(ctx context.Context, opt ExperimentOptions, w io.Writer) ([]*ExperimentTable, error) {
	return experiments.RunAll(ctx, opt, w)
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

// TraceRecorder captures per-iteration worker timelines on the sim runtime
// (set it on Spec.Trace) and renders ASCII Gantt charts of straggler
// behaviour.
type TraceRecorder = trace.Recorder

// ---------------------------------------------------------------------------
// Service: the multi-tenant training daemon
// ---------------------------------------------------------------------------

// JobID identifies a job submitted to the training service.
type JobID = core.JobID

// JobState is the lifecycle state of a submitted job:
// queued -> running -> one of the terminal states below. Test finality with
// JobState.Terminal.
type JobState = core.JobState

// The job lifecycle states reported by the service.
const (
	JobQueued   = core.JobQueued
	JobRunning  = core.JobRunning
	JobDone     = core.JobDone
	JobFailed   = core.JobFailed
	JobCanceled = core.JobCanceled
	JobDegraded = core.JobDegraded
)

// ServiceOptions configures StartService: listen addresses, queue bound,
// the per-job BufferPool cap, and lease/drain timeouts. The zero value
// listens on an ephemeral loopback port with no HTTP surface.
type ServiceOptions = service.Options

// Service is the running multi-tenant daemon: it accepts job submissions
// over the wire protocol, runs each job on its own engine instance with
// per-job isolation (BufferPool, RNG streams, fault plan, observer), and
// leases workers to TCP jobs from one shared fleet under strictly-FIFO
// admission. Stop with Drain (graceful) or Close (immediate).
type Service = service.Daemon

// StartService starts the daemon and returns once its listeners are bound;
// query the chosen ports with Addr and HTTPAddr.
func StartService(opts ServiceOptions) (*Service, error) { return service.Start(opts) }

// ServiceClient is the wire-protocol client for a running Service: Submit,
// Status, Cancel and Watch, each a lockstep request/reply on one
// connection.
type ServiceClient = service.Client

// DialService connects a client to the daemon's control address.
func DialService(addr string) (*ServiceClient, error) { return service.Dial(addr) }

// JobStatus is the service's JSON-ready snapshot of one job: state, queue
// and run times, and live training observables (iteration, gradient norm,
// payload and wire bytes, fault count).
type JobStatus = service.JobStatus

// WorkerStatus is the service's snapshot of one fleet worker: idle or
// busy, the job holding its lease, and its lifetime lease count.
type WorkerStatus = service.WorkerStatus

// ServeFleetWorker joins the daemon at addr as one fleet worker and serves
// leases until ctx is canceled or the daemon closes the fleet. The worker
// rebuilds each assigned job from the spec bytes in its Assign frame, so it
// needs no configuration beyond the address.
func ServeFleetWorker(ctx context.Context, addr, name string) error {
	return service.ServeWorker(ctx, addr, name)
}

// EncodeSpec serializes a Spec for submission over the wire. Process-local
// fields (Latency models, Observer hooks, StopWhen closures, trace
// recorders, checkpoint paths) cannot travel and are rejected here.
func EncodeSpec(s Spec) ([]byte, error) { return core.EncodeSpec(s) }

// DecodeSpec is the inverse of EncodeSpec; unknown fields are rejected and
// the result is normalized (defaults applied, options validated).
func DecodeSpec(data []byte) (Spec, error) { return core.DecodeSpec(data) }

// ---------------------------------------------------------------------------
// Randomness
// ---------------------------------------------------------------------------

// RNG is the library's deterministic random stream (xoshiro256**); split it
// to derive independent sub-streams.
type RNG = rngutil.RNG

// NewRNG returns a stream seeded with the given value.
func NewRNG(seed uint64) *RNG { return rngutil.New(seed) }
