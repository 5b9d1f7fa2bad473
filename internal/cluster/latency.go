// Package cluster is the distributed execution fabric the experiments run
// on. One event-driven master engine (engine.go) owns the per-iteration
// lifecycle — broadcast the query, consume worker arrivals, offer them to
// the decoder, finish the moment the gradient is decodable, advance the
// optimizer, record stats — and is parameterized by a small Transport /
// ArrivalSource interface. Two transports feed it: a discrete-event
// simulator (sim.go) and real workers (live.go) — in-process goroutines
// over pipes or loopback sockets, or out-of-process workers over TCP, all
// speaking one wire protocol through one fabric (tcp.go) — with pluggable
// schemes (internal/coding) and pluggable latency models
// (this file) shared by all of them. On every runtime the next query goes
// out once an iteration has decoded and workers drop whatever they were
// still doing for an older one, so each round starts with all workers idle
// — the paper's i.i.d. per-iteration straggler model, in which every round
// ends at its decode. Config.Faults injects deterministic fault schedules
// (internal/faults) — crashes, slowdowns, partitions, drop bursts —
// replayed identically by every transport.
//
// The fabric substitutes for the paper's EC2 cluster: the measured
// quantities (recovery threshold, communication/computation time split,
// total runtime) depend only on the order statistics of worker finish times
// and on message counts, which the latency models reproduce using the
// paper's own shift-exponential straggler model (§IV eq. 15).
package cluster

import (
	"fmt"

	"bcc/internal/rngutil"
)

// Latency models the per-iteration timing of the cluster. Implementations
// must be safe for concurrent use ACROSS workers (per-worker state only).
// Every runtime makes its draws through workerRound.draw, so one worker's
// calls are sequential, Compute then Upload within each iteration it draws
// for, and the simulator and the real workers draw for the same
// iterations. Model delivery costs no modelled time: the paper's latency
// model (§IV eq. 15) charges only computation and upload. The one mismatch
// real time makes inevitable: a live worker makes no draws for a queued
// query that a newer one superseded before the worker reached it. After
// such a skip a stateful model's live timings match the simulated ones in
// distribution, not draw for draw; what the master counts does not depend
// on it.
type Latency interface {
	// Compute returns worker's time to process the given number of raw data
	// points (seconds).
	Compute(worker, iter, points int) float64
	// Upload returns worker's time to transfer a message group of the given
	// size, in units of one gradient vector (seconds).
	Upload(worker, iter int, units float64) float64
}

// Zero is a Latency with no delays; useful for logic-only tests.
type Zero struct{}

func (Zero) Compute(int, int, int) float64    { return 0 }
func (Zero) Upload(int, int, float64) float64 { return 0 }

// Fixed is a deterministic latency model: constant per-point compute cost
// and per-unit upload cost, with an optional per-worker speed factor
// (factor 2 means twice as slow). It makes timing assertions in tests exact.
type Fixed struct {
	PerPoint float64
	PerUnit  float64
	// Factor[w] scales worker w's compute and upload times; nil means all 1.
	Factor []float64
}

func (f Fixed) factor(w int) float64 {
	if f.Factor == nil || w >= len(f.Factor) {
		return 1
	}
	return f.Factor[w]
}

func (f Fixed) Compute(w, _ int, points int) float64 {
	return f.factor(w) * f.PerPoint * float64(points)
}
func (f Fixed) Upload(w, _ int, units float64) float64 {
	return f.factor(w) * f.PerUnit * units
}

// ShiftExpParams are the per-worker parameters of the paper's latency model
// (eq. 15): a deterministic shift a*load plus an exponential tail of rate
// mu/load, applied separately to computation (load = data points) and
// communication (load = message units).
type ShiftExpParams struct {
	// ComputeShift (a_c) is the deterministic seconds per data point.
	ComputeShift float64
	// ComputeMu (mu_c) is the straggler parameter of the compute tail;
	// larger mu = lighter tail. The expected tail is points/mu_c.
	ComputeMu float64
	// CommShift (a_u) is the deterministic seconds per message unit.
	CommShift float64
	// CommMu (mu_u) is the straggler parameter of the upload tail.
	CommMu float64
}

// ShiftExp draws per-iteration latencies from the paper's shift-exponential
// model, one independent stream per worker so runtimes can draw from
// concurrent goroutines deterministically.
type ShiftExp struct {
	params  []ShiftExpParams
	streams []*rngutil.RNG
}

// NewShiftExp builds the model for n workers. If params has length 1 the
// single parameter set applies to every worker (homogeneous cluster);
// otherwise it must have length n. Streams are split from rng.
func NewShiftExp(n int, params []ShiftExpParams, rng *rngutil.RNG) (*ShiftExp, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: NewShiftExp with n=%d", n)
	}
	if len(params) != 1 && len(params) != n {
		return nil, fmt.Errorf("cluster: NewShiftExp needs 1 or %d parameter sets, got %d", n, len(params))
	}
	if rng == nil {
		return nil, fmt.Errorf("cluster: NewShiftExp needs an rng")
	}
	ps := make([]ShiftExpParams, n)
	for w := 0; w < n; w++ {
		if len(params) == 1 {
			ps[w] = params[0]
		} else {
			ps[w] = params[w]
		}
	}
	return &ShiftExp{params: ps, streams: rng.SplitN(n)}, nil
}

func (s *ShiftExp) draw(w int, mu, shift, load float64) float64 {
	if load <= 0 {
		return 0
	}
	if mu <= 0 { // no stochastic tail configured
		return shift * load
	}
	return s.streams[w].ShiftedExponential(mu, shift, load)
}

func (s *ShiftExp) Compute(w, _ int, points int) float64 {
	p := s.params[w]
	return s.draw(w, p.ComputeMu, p.ComputeShift, float64(points))
}

func (s *ShiftExp) Upload(w, _ int, units float64) float64 {
	p := s.params[w]
	return s.draw(w, p.CommMu, p.CommShift, units)
}
