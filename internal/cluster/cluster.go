package cluster

import (
	"errors"
	"fmt"
	"math"

	"bcc/internal/coding"
	"bcc/internal/faults"
	"bcc/internal/model"
	"bcc/internal/optimize"
	"bcc/internal/stats"
	"bcc/internal/trace"
	"bcc/internal/vecmath"
)

// Config describes one distributed training run.
type Config struct {
	// Plan fixes the data placement and gradient code.
	Plan coding.Plan
	// Model evaluates partial gradients over data rows.
	Model model.Model
	// Units maps each of the plan's m examples to the raw data rows it
	// contains (dataset.Units output). len(Units) must equal the plan's m
	// and the union must cover the model's rows exactly once.
	Units [][]int
	// Opt is advanced once per iteration with the decoded full gradient.
	Opt optimize.Optimizer
	// Iterations is the number of gradient steps to run.
	Iterations int
	// Latency injects straggler behaviour; nil means Zero.
	Latency Latency
	// IngressPerUnit models the master's receive bottleneck: draining one
	// message unit occupies the master for this many seconds, so messages
	// queue and the per-iteration time grows with the number of messages the
	// master must take — the effect that makes the paper's total running
	// times roughly proportional to the recovery threshold (§III-C). Zero
	// disables the bottleneck (infinitely fast master NIC).
	IngressPerUnit float64
	// Faults, if non-nil, deterministically schedules per-worker fault
	// events — crashes and restarts (a worker that never answers is a crash
	// at iteration 0), transient slowdown windows, master-side partition
	// windows, correlated drop bursts and i.i.d. drops — identically on every
	// runtime (see internal/faults). Crashed workers do no work, slowdown
	// windows multiply the Latency model's compute and upload draws, and lost
	// transmissions are discarded by the master. Scheduled events are
	// surfaced through Observer.OnWorkerFault, and an iteration whose
	// reachable workers fall below the scheme's decodable minimum fails fast
	// with ErrBelowThreshold.
	Faults *faults.Plan
	// LossEvery, if positive, evaluates full training loss every k
	// iterations and records it in the stats (costly for large models).
	LossEvery int
	// Trace, if non-nil, records per-iteration worker timelines, the
	// uncounted tail included (sim runtime only; the live runtimes measure
	// wall clock, not modelled spans).
	Trace *trace.Recorder
	// Controller, if non-nil and Plan implements coding.Retunable, re-tunes
	// the plan's active redundancy level at the top of every iteration (see
	// controller.go): the engine gathers deterministic fault-plan telemetry,
	// applies the returned level (clamped and floored at the
	// MinResponders-safe level for the reachable fleet) and broadcasts it
	// with the query, so workers encode and the master decodes each
	// iteration at one agreed level. Nil — or a non-Retunable Plan — keeps
	// the level fixed for the whole run (today's behavior).
	Controller Controller
	// Observer, if non-nil, receives lifecycle callbacks from the engine
	// loop (see observer.go). Hooks run synchronously on the master.
	Observer Observer
	// StopWhen, if non-nil, is evaluated after each iteration's stats are
	// final; returning true ends the run early with the iterations so far
	// (no error — the Result simply holds fewer than Iterations entries).
	StopWhen func(IterStats) bool
	// CheckpointEvery, if positive together with a non-nil Checkpoint,
	// invokes Checkpoint after every CheckpointEvery-th completed iteration
	// with the completed-iteration count. A checkpoint error aborts the run
	// (returning the iterations finished so far alongside the error).
	CheckpointEvery int
	// Checkpoint persists run state; wired by callers (core wires it to
	// Job.Checkpoint). Only consulted when CheckpointEvery > 0.
	Checkpoint func(completed int) error
	// Comm configures the comm-plane payload codec (raw64/f32/topk) and wire
	// chunking; the zero value is the lossless raw64 default. See
	// CommOptions.
	Comm CommOptions
	// PoolCap bounds the run's BufferPool free list (0 = a default derived
	// from the plan's in-flight payload count). Past the cap, recycled
	// buffers spill to the GC instead of being retained — the knob a
	// multi-tenant host uses to keep one large-p job from holding memory
	// hostage while other jobs run. A too-small cap costs allocations, never
	// correctness.
	PoolCap int

	// bufs is the run's shared gradient-buffer pool (see BufferPool for the
	// ownership protocol), created lazily by buffers() before any worker
	// goroutine starts.
	bufs *BufferPool
	// cp is the resolved comm plane, cached by validate()/comm().
	cp    commPlane
	cpSet bool
}

// comm returns the run's resolved comm plane, resolving it on first use.
// validate() resolves (and reports errors for) the configured options before
// any transport is built; this accessor therefore only sees valid options
// and falls back to raw64 defensively if called on an unvalidated config.
func (c *Config) comm() commPlane {
	if !c.cpSet {
		cp, err := c.Comm.resolve(c.Model.Dim())
		if err != nil {
			cp, _ = CommOptions{}.resolve(c.Model.Dim())
		}
		c.cp, c.cpSet = cp, true
	}
	return c.cp
}

// iterPayloads bounds the payload buffers one iteration keeps in flight: n
// workers times messages-per-worker, one buffer per message. Every message
// carries one communication unit, so CommLoadPerWorker bounds the
// per-worker message count.
func (c *Config) iterPayloads() int {
	_, n, _ := c.Plan.Params()
	perWorker := int(math.Ceil(c.Plan.CommLoadPerWorker()))
	if perWorker < 1 {
		perWorker = 1
	}
	return n * perWorker
}

// buffers returns the run's shared payload-buffer pool, creating it on first
// use. It must first be called while setup is still single-threaded (the
// engine and every transport constructor do); afterwards the pool itself is
// safe for concurrent use.
func (c *Config) buffers() *BufferPool {
	if c.bufs == nil {
		cap := c.PoolCap
		if cap <= 0 {
			// Twice one iteration's payloads covers a straggler round still
			// draining while the next one encodes. The pool also holds every
			// in-process worker's query buffers, whose decoded broadcasts
			// can be as many again, so the cap doubles that. It only bounds
			// retention; a too-small value would silently re-allocate every
			// iteration.
			cap = 4*c.iterPayloads() + 64
		}
		c.bufs = NewBufferPool(c.Model.Dim(), cap)
	}
	return c.bufs
}

// Buffers exposes the run's payload-buffer pool (created on first call),
// for callers that accept the run's data-plane connections themselves and
// want reply deserialization to land in the same pool the engine recycles
// into — see ServeMasterPool. Config.Plan and Config.Model must be set.
func (c *Config) Buffers() *BufferPool { return c.buffers() }

func (c *Config) validate() error {
	if c.Plan == nil || c.Model == nil || c.Opt == nil {
		return errors.New("cluster: Config needs Plan, Model and Opt")
	}
	if c.IngressPerUnit < 0 || math.IsNaN(c.IngressPerUnit) {
		return fmt.Errorf("cluster: IngressPerUnit %v must be non-negative", c.IngressPerUnit)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("cluster: CheckpointEvery %d must be non-negative", c.CheckpointEvery)
	}
	if c.PoolCap < 0 {
		return fmt.Errorf("cluster: PoolCap %d must be non-negative", c.PoolCap)
	}
	m, n, _ := c.Plan.Params()
	if len(c.Units) != m {
		return fmt.Errorf("cluster: plan has m=%d examples but %d units supplied", m, len(c.Units))
	}
	if c.Iterations <= 0 {
		return errors.New("cluster: Iterations must be positive")
	}
	seen := make(map[int]bool)
	total := 0
	for u, rows := range c.Units {
		for _, r := range rows {
			if r < 0 || r >= c.Model.NumExamples() {
				return fmt.Errorf("cluster: unit %d references row %d outside model", u, r)
			}
			if seen[r] {
				return fmt.Errorf("cluster: row %d appears in multiple units", r)
			}
			seen[r] = true
			total++
		}
	}
	if total != c.Model.NumExamples() {
		return fmt.Errorf("cluster: units cover %d rows, model has %d", total, c.Model.NumExamples())
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		if c.Faults.N != n {
			return fmt.Errorf("cluster: fault plan built for %d workers, cluster has %d", c.Faults.N, n)
		}
	}
	cp, err := c.Comm.resolve(c.Model.Dim())
	if err != nil {
		return err
	}
	c.cp, c.cpSet = cp, true
	return nil
}

func (c *Config) latency() Latency {
	if c.Latency == nil {
		return Zero{}
	}
	return c.Latency
}

// IterStats records one iteration's measurements, mirroring the breakdown of
// the paper's Tables I and II.
type IterStats struct {
	Iter int
	// Wall is the iteration's duration in simulated seconds (sim runtime) or
	// scaled real seconds (live runtimes).
	Wall float64
	// Compute is the maximum computation time among the workers whose
	// results the master counted — the paper's computation-time metric.
	Compute float64
	// Comm is Wall - Compute, the paper's communication-time approximation.
	Comm float64
	// WorkersHeard is the realized recovery threshold |W| this iteration.
	WorkersHeard int
	// Units is the realized communication load this iteration.
	Units float64
	// Bytes counts payload bytes the master received this iteration, as
	// modelled from the configured payload codec (element bytes only, no
	// framing). It is runtime-independent: sim, live and tcp report the same
	// value for the same run.
	Bytes int
	// WireBytesIn and WireBytesOut count bytes MEASURED at the wire layer
	// this iteration — every byte read from and written to the master's
	// connections, framing and headers included: pipes on live, sockets on
	// tcp. The simulator has no wire and leaves them zero. Unlike Bytes they
	// are an observation, not a model, so they are excluded from
	// cross-runtime conformance.
	WireBytesIn  int
	WireBytesOut int
	// GradNorm is the Euclidean norm of the decoded (normalized) gradient.
	GradNorm float64
	// Level is the active redundancy level this iteration on plans that
	// implement coding.Retunable (the nested family); 0 on fixed plans. It
	// is runtime-independent: the controller's decisions derive only from
	// deterministic telemetry.
	Level int
	// Loss is the full training loss, if LossEvery sampled this iteration
	// (NaN otherwise).
	Loss float64
}

// Result aggregates a full run.
type Result struct {
	// FinalW is the learned iterate after the last iteration.
	FinalW []float64
	// Iters holds per-iteration stats in order.
	Iters []IterStats
	// TotalWall, TotalCompute, TotalComm are sums over iterations. Each
	// iteration ends at its decode on every runtime: the master never waits
	// for the straggler tail, since workers drop work for a query the master
	// has moved past. Master work between iterations — optimizer advance,
	// LossEvery evaluations — is not timed on any runtime.
	TotalWall, TotalCompute, TotalComm float64
	// AvgWorkersHeard is the empirical recovery threshold (Definition 2).
	AvgWorkersHeard float64
	// AvgUnits is the empirical communication load (Definition 3).
	AvgUnits float64
	// TotalBytes counts all payload bytes received by the master (modelled
	// from the payload codec, like IterStats.Bytes).
	TotalBytes int
	// TotalWireIn and TotalWireOut sum the per-iteration measured wire
	// bytes (live and tcp; zero on the simulator), plus — with
	// LiveOptions.Drain — the post-run drain residue: the engine drains the
	// fabric before assembling the Result, so straggler reply frames still
	// in flight at the final decode are read and counted rather than racing
	// the shutdown, making the totals reproducible run to run. Handshake
	// frames (read during accept) and shutdown frames fall outside both
	// windows and are never included.
	TotalWireIn  int
	TotalWireOut int
	// LevelSwitches counts the iterations at which a Retunable plan's
	// active level changed from the previous iteration's (0 on fixed
	// plans): the controller's re-tuning activity over the run.
	LevelSwitches int
}

// WallSummary returns descriptive statistics of the per-iteration wall
// times (mean, spread, quantiles) — the straggler variance a raw total
// hides.
func (r *Result) WallSummary() stats.Summary {
	xs := make([]float64, len(r.Iters))
	for i, it := range r.Iters {
		xs[i] = it.Wall
	}
	return stats.Summarize(xs)
}

// ThresholdSummary returns descriptive statistics of the per-iteration
// realized recovery thresholds.
func (r *Result) ThresholdSummary() stats.Summary {
	xs := make([]float64, len(r.Iters))
	for i, it := range r.Iters {
		xs[i] = float64(it.WorkersHeard)
	}
	return stats.Summarize(xs)
}

func summarize(finalW []float64, iters []IterStats) *Result {
	res := &Result{FinalW: finalW, Iters: iters}
	prevLevel := 0
	for _, it := range iters {
		if it.Level != 0 {
			if prevLevel != 0 && it.Level != prevLevel {
				res.LevelSwitches++
			}
			prevLevel = it.Level
		}
		res.TotalWall += it.Wall
		res.TotalCompute += it.Compute
		res.TotalComm += it.Comm
		res.AvgWorkersHeard += float64(it.WorkersHeard)
		res.AvgUnits += it.Units
		res.TotalBytes += it.Bytes
		res.TotalWireIn += it.WireBytesIn
		res.TotalWireOut += it.WireBytesOut
	}
	if len(iters) > 0 {
		res.AvgWorkersHeard /= float64(len(iters))
		res.AvgUnits /= float64(len(iters))
	}
	return res
}

// ErrStalled is returned when every alive worker has reported and the
// decoder still cannot reconstruct the gradient (e.g. crashes or losses left
// some data uncovered although enough workers answered).
var ErrStalled = errors.New("cluster: all alive workers reported but gradient is not decodable")

// ErrBelowThreshold is returned when the fault plan (crashes, partitions,
// drop bursts and i.i.d. drops alike) leaves an iteration with fewer
// reachable workers than the scheme can possibly decode from
// (coding.MinResponders): the engine degrades explicitly before running the
// doomed iteration, keeping the completed iterations as a partial Result.
// It matches ErrStalled under errors.Is (without inheriting its
// all-workers-reported message — on this path the iteration never ran), so
// errors.Is(err, ErrStalled) continues to identify every
// unrecoverable-gradient failure.
var ErrBelowThreshold error = belowThresholdError{}

type belowThresholdError struct{}

func (belowThresholdError) Error() string {
	return "cluster: too few reachable workers to ever decode"
}

// Is makes errors.Is(ErrBelowThreshold, ErrStalled) true: both report an
// unrecoverable gradient, they differ only in when that was detected.
func (belowThresholdError) Is(target error) bool { return target == ErrStalled }

// finishIteration folds the decoded gradient into the optimizer and fills
// the iteration stats shared by all runtimes. grad is the engine's reusable
// decode buffer (length Dim), fully overwritten here.
func finishIteration(cfg *Config, dec coding.Decoder, grad []float64, st *IterStats) error {
	if err := dec.DecodeInto(grad); err != nil {
		return err
	}
	vecmath.Scale(1/float64(cfg.Model.NumExamples()), grad)
	cfg.Opt.Update(grad)
	st.WorkersHeard = dec.WorkersHeard()
	st.Units = dec.UnitsReceived()
	st.GradNorm = vecmath.Norm2(grad)
	return nil
}
