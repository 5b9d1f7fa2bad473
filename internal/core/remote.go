// Remote-job support: the Spec wire codec of the service control plane,
// plus the job-lifecycle vocabulary (IDs, queue
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
	"errors"
	"fmt"
	"io"

	"bcc/internal/cluster"
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
	return json.Marshal(norm)
}

// DecodeSpec parses EncodeSpec output back into a validated, normalized
// Spec. Unknown fields are rejected: a spec from a newer peer carrying an
// option this build does not understand must fail loudly, not silently run
// a different job. So is anything but whitespace after the spec value.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("core: decoding remote spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("core: decoding remote spec: trailing data after the spec")
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
		Index:     index,
		Plan:      j.Plan,
		Model:     j.Model,
		Units:     j.Units,
		Latency:   lat,
		TimeScale: j.Spec.TimeScale,
		Faults:    j.Faults,
		Comm:      j.Spec.comm(),
	}
}

// Comm exposes the job's resolved comm-plane options (payload codec, top-K,
// chunking) for callers that accept the job's data-plane connections
// themselves.
func (j *Job) Comm() cluster.CommOptions { return j.Spec.comm() }
