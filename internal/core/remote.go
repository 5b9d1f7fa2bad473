// Remote-job support: the serializable subset of Spec that travels over the
// service control plane, plus the job-lifecycle vocabulary (IDs, queue
// states) shared by the daemon, its clients and the fleet workers.
//
// A submitted job is rebuilt independently on both sides of the wire: the
// daemon and every leased worker call NewJob on the decoded spec, and
// because all randomness (dataset, placement, fault schedules) is a pure
// function of the spec's seeds, both sides materialize the identical plan
// and data without shipping either.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bcc/internal/cluster"
	"bcc/internal/faults"
)

// JobID identifies a job accepted by a training-service daemon. IDs are
// assigned by the daemon in submission order, starting at 1.
type JobID uint64

// JobState is the lifecycle state of a submitted job.
type JobState string

// The job lifecycle: queued -> running -> one of the four terminal states.
const (
	// JobQueued: accepted, waiting for its turn and for enough idle workers.
	JobQueued JobState = "queued"
	// JobRunning: admitted, its engine is iterating.
	JobRunning JobState = "running"
	// JobDone: ran to completion (or its StopWhen-equivalent tolerance).
	JobDone JobState = "done"
	// JobFailed: ended with an error other than cancellation or degrade.
	JobFailed JobState = "failed"
	// JobCanceled: canceled while queued or running; a canceled running job
	// keeps the partial result of its completed iterations.
	JobCanceled JobState = "canceled"
	// JobDegraded: ended early because the gradient became unrecoverable
	// (cluster.ErrBelowThreshold / ErrStalled); completed iterations are
	// kept.
	JobDegraded JobState = "degraded"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCanceled, JobDegraded:
		return true
	}
	return false
}

// remoteSpec is the serializable shadow of Spec: exactly the fields that are
// pure data. Process-local fields (Latency models, Observer hooks, StopWhen
// closures, trace recorders, checkpoint paths) cannot travel and are
// rejected by EncodeSpec with a field-naming error.
type remoteSpec struct {
	DataPoints         int          `json:"data_points,omitempty"`
	Dim                int          `json:"dim,omitempty"`
	Separation         float64      `json:"separation,omitempty"`
	StandardLabels     bool         `json:"standard_labels,omitempty"`
	Lambda             float64      `json:"lambda,omitempty"`
	Density            float64      `json:"density,omitempty"`
	Examples           int          `json:"examples,omitempty"`
	Workers            int          `json:"workers,omitempty"`
	Load               int          `json:"load,omitempty"`
	Scheme             Scheme       `json:"scheme,omitempty"`
	AdaptRedundancy    bool         `json:"adapt_redundancy,omitempty"`
	AdaptWindow        int          `json:"adapt_window,omitempty"`
	Iterations         int          `json:"iterations,omitempty"`
	StepSize           float64      `json:"step_size,omitempty"`
	Optimizer          Optimizer    `json:"optimizer,omitempty"`
	Seed               uint64       `json:"seed,omitempty"`
	IngressPerUnit     float64      `json:"ingress_per_unit,omitempty"`
	Faults             *faults.Plan `json:"faults,omitempty"`
	FaultScenario      string       `json:"fault_scenario,omitempty"`
	FaultSeed          uint64       `json:"fault_seed,omitempty"`
	ComputeParallelism int          `json:"compute_parallelism,omitempty"`
	MasterShards       int          `json:"master_shards,omitempty"`
	Runtime            Runtime      `json:"runtime,omitempty"`
	Payload            Payload      `json:"payload,omitempty"`
	TopK               int          `json:"top_k,omitempty"`
	WireChunk          int          `json:"wire_chunk,omitempty"`
	TimeScale          float64      `json:"time_scale,omitempty"`
	LossEvery          int          `json:"loss_every,omitempty"`
	GradNormTol        float64      `json:"grad_norm_tol,omitempty"`
}

// EncodeSpec serializes a spec for submission over the control plane. The
// spec is normalized (defaults applied) and validated first, so daemon and
// workers decode the identical fully-resolved spec even if their default
// tables were to drift. Specs carrying process-local state — a Latency
// model, Observer, StopWhen, Trace recorder or checkpoint configuration —
// are rejected: those cannot cross the wire and would silently change the
// job's semantics if dropped.
func EncodeSpec(s Spec) ([]byte, error) {
	switch {
	case s.Latency != nil:
		return nil, fmt.Errorf("core: spec with a Latency model cannot be submitted remotely (latency models are process-local; use Faults or FaultScenario for reproducible straggling)")
	case s.Observer != nil:
		return nil, fmt.Errorf("core: spec with an Observer cannot be submitted remotely (watch the job through the service status surface instead)")
	case s.StopWhen != nil:
		return nil, fmt.Errorf("core: spec with a StopWhen closure cannot be submitted remotely (use GradNormTol)")
	case s.Trace != nil:
		return nil, fmt.Errorf("core: spec with a Trace recorder cannot be submitted remotely")
	case s.CheckpointEvery > 0 || s.CheckpointPath != "":
		return nil, fmt.Errorf("core: spec with checkpointing cannot be submitted remotely (checkpoint paths are local to the submitting process)")
	}
	norm, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(remoteSpec{
		DataPoints:         norm.DataPoints,
		Dim:                norm.Dim,
		Separation:         norm.Separation,
		StandardLabels:     norm.StandardLabels,
		Lambda:             norm.Lambda,
		Density:            norm.Density,
		Examples:           norm.Examples,
		Workers:            norm.Workers,
		Load:               norm.Load,
		Scheme:             norm.Scheme,
		AdaptRedundancy:    norm.AdaptRedundancy,
		AdaptWindow:        norm.AdaptWindow,
		Iterations:         norm.Iterations,
		StepSize:           norm.StepSize,
		Optimizer:          norm.Optimizer,
		Seed:               norm.Seed,
		IngressPerUnit:     norm.IngressPerUnit,
		Faults:             norm.Faults,
		FaultScenario:      norm.FaultScenario,
		FaultSeed:          norm.FaultSeed,
		ComputeParallelism: norm.ComputeParallelism,
		MasterShards:       norm.MasterShards,
		Runtime:            norm.Runtime,
		Payload:            norm.Payload,
		TopK:               norm.TopK,
		WireChunk:          norm.WireChunk,
		TimeScale:          norm.TimeScale,
		LossEvery:          norm.LossEvery,
		GradNormTol:        norm.GradNormTol,
	})
}

// DecodeSpec parses EncodeSpec output back into a validated, normalized
// Spec. Unknown fields are rejected: a spec from a newer peer carrying an
// option this build does not understand must fail loudly, not silently run
// a different job.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rs remoteSpec
	if err := dec.Decode(&rs); err != nil {
		return Spec{}, fmt.Errorf("core: decoding remote spec: %w", err)
	}
	s := Spec{
		DataPoints:         rs.DataPoints,
		Dim:                rs.Dim,
		Separation:         rs.Separation,
		StandardLabels:     rs.StandardLabels,
		Lambda:             rs.Lambda,
		Density:            rs.Density,
		Examples:           rs.Examples,
		Workers:            rs.Workers,
		Load:               rs.Load,
		Scheme:             rs.Scheme,
		AdaptRedundancy:    rs.AdaptRedundancy,
		AdaptWindow:        rs.AdaptWindow,
		Iterations:         rs.Iterations,
		StepSize:           rs.StepSize,
		Optimizer:          rs.Optimizer,
		Seed:               rs.Seed,
		IngressPerUnit:     rs.IngressPerUnit,
		Faults:             rs.Faults,
		FaultScenario:      rs.FaultScenario,
		FaultSeed:          rs.FaultSeed,
		ComputeParallelism: rs.ComputeParallelism,
		MasterShards:       rs.MasterShards,
		Runtime:            rs.Runtime,
		Payload:            rs.Payload,
		TopK:               rs.TopK,
		WireChunk:          rs.WireChunk,
		TimeScale:          rs.TimeScale,
		LossEvery:          rs.LossEvery,
		GradNormTol:        rs.GradNormTol,
	}
	return s.Normalized()
}

// Normalized returns the spec with defaults applied, after validating every
// option — the cheap (no dataset generation) half of NewJob, for callers
// that must accept or reject a spec before committing resources to it.
func (s Spec) Normalized() (Spec, error) {
	out := s.withDefaults()
	if err := out.validateOptions(); err != nil {
		return Spec{}, err
	}
	return out, nil
}

// EngineConfig lowers the job to the cluster engine's Config — placement,
// model, optimizer and lifecycle hooks wired exactly as Run would. It is
// the entry point for callers that own the transport themselves (the
// service daemon builds a per-job fabric over leased fleet workers and
// drives the engine directly).
func (j *Job) EngineConfig() *cluster.Config { return j.clusterConfig() }

// WorkerEnv builds the environment needed to serve worker `index` of this
// job over a fabric — the fleet-worker counterpart of EngineConfig. The
// caller on the other end of the wire rebuilds the job with NewJob from the
// same spec, so plan, units and model match the master's bit for bit.
func (j *Job) WorkerEnv(index int) cluster.WorkerEnv {
	lat := j.Spec.Latency
	if lat == nil {
		lat = cluster.Zero{}
	}
	return cluster.WorkerEnv{
		Index:              index,
		Plan:               j.Plan,
		Model:              j.Model,
		Units:              j.Units,
		Latency:            lat,
		TimeScale:          j.Spec.TimeScale,
		Faults:             j.Faults,
		Comm:               j.Spec.comm(),
		ComputeParallelism: j.Spec.ComputeParallelism,
	}
}

// Comm exposes the job's resolved comm-plane options (payload codec, top-K,
// chunking) for callers that accept the job's data-plane connections
// themselves.
func (j *Job) Comm() cluster.CommOptions { return j.Spec.comm() }
