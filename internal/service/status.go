package service

import (
	"context"
	"math"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/faults"
)

// jobRecord is the daemon's book-keeping for one submitted job. Immutable
// identity fields are set at submission; the mutable lifecycle and progress
// fields are guarded by Daemon.mu (the per-job Observer updates them from
// the job's engine goroutine).
type jobRecord struct {
	id        core.JobID
	spec      core.Spec
	specBytes []byte // normalized EncodeSpec bytes, what Assign frames carry
	need      int    // fleet workers required for admission (tcp runtime)

	state     core.JobState
	errText   string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	done      chan struct{} // closed when the job reaches a terminal state
	result    *cluster.Result
	leased    []*fleetWorker

	// Live progress, fed by the per-job Observer.
	iter         int
	gradNorm     float64
	loss         float64 // NaN until LossEvery samples one
	bytes        int
	wireIn       int64
	wireOut      int64
	workersHeard int
	heardSum     int // workers heard, summed over completed iterations
	faults       int
	level        int // active redundancy level (adaptive nested jobs; 0 otherwise)
	levelSwitch  int // level changes between consecutive iterations
}

// JobStatus is the externally visible snapshot of a job, shared by the Go
// API, the wire State frames and the HTTP surface.
type JobStatus struct {
	ID      core.JobID    `json:"id"`
	State   core.JobState `json:"state"`
	Err     string        `json:"err,omitempty"`
	Scheme  string        `json:"scheme"`
	Runtime string        `json:"runtime"`
	Payload string        `json:"payload,omitempty"`
	// Workers is the spec's cluster size n; a TCP job leases all n from the
	// fleet.
	Workers    int `json:"workers"`
	Iterations int `json:"iterations"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// QueueSeconds is time spent waiting for admission; RunSeconds is time
	// spent on the engine. Both keep ticking while the job is in that phase.
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds"`

	// Progress so far (final values once terminal).
	Iter         int     `json:"iter"`
	GradNorm     float64 `json:"grad_norm,omitempty"`
	Loss         float64 `json:"loss,omitempty"`
	Bytes        int     `json:"bytes,omitempty"`
	WireIn       int64   `json:"wire_in,omitempty"`
	WireOut      int64   `json:"wire_out,omitempty"`
	WorkersHeard int     `json:"workers_heard,omitempty"`
	// AvgWorkersHeard is the empirical recovery threshold: the mean workers
	// heard over the completed iterations (Result.AvgWorkersHeard).
	AvgWorkersHeard float64 `json:"avg_workers_heard,omitempty"`
	Faults          int     `json:"faults,omitempty"`
	// Level is the redundancy level the adaptive nested controller ran the
	// last iteration at (0 for fixed-redundancy jobs); LevelSwitches counts
	// how many times the level changed between consecutive iterations.
	Level         int `json:"level,omitempty"`
	LevelSwitches int `json:"level_switches,omitempty"`
}

// WorkerStatus describes one fleet worker.
type WorkerStatus struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// State is "idle" (in the lease pool) or "busy" (leased to Job).
	State string     `json:"state"`
	Job   core.JobID `json:"job,omitempty"`
	// Leases counts completed leases over the worker's lifetime.
	Leases int `json:"leases"`
}

// statusLocked snapshots a record into its external form. Callers hold d.mu.
func (d *Daemon) statusLocked(rec *jobRecord) JobStatus {
	now := time.Now()
	st := JobStatus{
		ID:         rec.id,
		State:      rec.state,
		Err:        rec.errText,
		Scheme:     string(rec.spec.Scheme),
		Runtime:    string(rec.spec.Runtime),
		Payload:    string(rec.spec.Payload),
		Workers:    rec.spec.Workers,
		Iterations: rec.spec.Iterations,
		Submitted:  rec.submitted,
		Started:    rec.started,
		Finished:   rec.finished,

		Iter:          rec.iter,
		GradNorm:      rec.gradNorm,
		Bytes:         rec.bytes,
		WireIn:        rec.wireIn,
		WireOut:       rec.wireOut,
		WorkersHeard:  rec.workersHeard,
		Faults:        rec.faults,
		Level:         rec.level,
		LevelSwitches: rec.levelSwitch,
	}
	if rec.iter > 0 {
		st.AvgWorkersHeard = float64(rec.heardSum) / float64(rec.iter)
	}
	if !math.IsNaN(rec.loss) {
		st.Loss = rec.loss
	}
	switch {
	case rec.started.IsZero(): // still queued (or canceled while queued)
		end := now
		if !rec.finished.IsZero() {
			end = rec.finished
		}
		st.QueueSeconds = end.Sub(rec.submitted).Seconds()
	default:
		st.QueueSeconds = rec.started.Sub(rec.submitted).Seconds()
		end := now
		if !rec.finished.IsZero() {
			end = rec.finished
		}
		st.RunSeconds = end.Sub(rec.started).Seconds()
	}
	return st
}

// observe builds the job's private Observer: it feeds the record's progress
// fields so /jobs and Status report live iteration counts, gradient norms
// and measured wire traffic. Hooks run synchronously on the job's master
// goroutine, so each callback only takes the daemon lock briefly.
func (d *Daemon) observe(rec *jobRecord) cluster.Observer {
	return cluster.ObserverFuncs{
		Iteration: func(st cluster.IterStats) {
			d.mu.Lock()
			rec.iter = st.Iter + 1
			rec.gradNorm = st.GradNorm
			if !math.IsNaN(st.Loss) {
				rec.loss = st.Loss
			}
			rec.bytes += st.Bytes
			rec.wireIn += int64(st.WireBytesIn)
			rec.wireOut += int64(st.WireBytesOut)
			rec.workersHeard = st.WorkersHeard
			rec.heardSum += st.WorkersHeard
			if st.Level > 0 {
				if rec.level != 0 && st.Level != rec.level {
					rec.levelSwitch++
				}
				rec.level = st.Level
			}
			d.mu.Unlock()
		},
		Fault: func(faults.Event) {
			d.mu.Lock()
			rec.faults++
			d.mu.Unlock()
		},
	}
}
