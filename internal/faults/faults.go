// Package faults is the deterministic fault-injection subsystem of the
// cluster fabric. A Plan schedules per-worker, per-iteration fault events —
// permanent crashes, restart-after-k-iterations, transient (optionally
// periodic) slowdown windows, master-side partition windows and correlated
// drop bursts — and answers every query as a pure function of (worker,
// iteration) and a single seed. Nothing is drawn at query time, so the sim,
// live and tcp runtimes replay bit-identical fault sequences no matter in
// which order (or from how many goroutines) they consult the plan.
//
// The queries split along the master/worker boundary of the fabric:
//
//   - Active(w, iter) is the WORKER-side state: a crashed worker computes
//     nothing and transmits nothing until (and unless) it restarts. The
//     cluster's one worker round, run by the simulator and the real workers
//     alike, consults it before any latency draw.
//   - SlowFactor(w, iter) is the worker-side latency multiplier of any
//     slowdown window covering the iteration (1 outside windows). The
//     cluster package applies it on top of the configured Latency model's
//     compute and upload draws.
//   - MasterDrop(w, iter) is the MASTER-side state: the worker's
//     transmission this iteration is lost before the master can use it:
//     a partition window makes the worker range unreachable, a correlated
//     drop burst is in progress, or the i.i.d. Drop draw lost it. Workers
//     still draw, compute and transmit (they cannot know the network ate
//     the message), on the simulator too; the master discards the arrival.
//
// Plan is the only scheduled-fault input of the cluster: a worker that never
// answers is a Crash at iteration 0, and i.i.d. message loss is Plan.Drop.
//
// EventsAt exposes the schedule as a deterministic event trace (crashes,
// restarts, window and partition edges, burst starts) that the master
// engine forwards to Observer.OnWorkerFault — the same trace on every
// runtime, which is what the scenario conformance suite pins.
package faults

import "fmt"

// Kind labels one fault event in the deterministic event trace.
type Kind string

// The fault-event kinds, in the order EventsAt emits them within one
// iteration.
const (
	// KindCrash marks a worker going down at this iteration.
	KindCrash Kind = "crash"
	// KindRestart marks a crashed worker coming back at this iteration.
	KindRestart Kind = "restart"
	// KindSlowStart / KindSlowEnd bracket a slowdown window.
	KindSlowStart Kind = "slow-start"
	KindSlowEnd   Kind = "slow-end"
	// KindPartitionStart / KindPartitionEnd bracket a master-side partition
	// window over a contiguous worker range.
	KindPartitionStart Kind = "partition-start"
	KindPartitionEnd   Kind = "partition-end"
	// KindBurst marks the start of a correlated drop burst.
	KindBurst Kind = "burst-drop"
	// KindDegraded is emitted by the master engine (not by EventsAt) when an
	// iteration's reachable workers fall below the scheme's decodable
	// minimum and the run degrades explicitly.
	KindDegraded Kind = "degraded"
)

// Event is one entry of the deterministic fault-event trace.
type Event struct {
	// Iter is the iteration the event takes effect at.
	Iter int
	// Kind labels the event.
	Kind Kind
	// Worker is the affected worker, or -1 for range/cluster events
	// (partitions, bursts, degradation).
	Worker int
	// Factor is the latency multiplier of slow-start events (0 otherwise).
	Factor float64
	// Lo, Hi give the affected worker range [Lo, Hi) of partition events
	// (0, 0 otherwise).
	Lo, Hi int
}

// String renders the event compactly for traces and logs.
func (e Event) String() string {
	switch e.Kind {
	case KindSlowStart:
		return fmt.Sprintf("iter=%d %s w%d x%g", e.Iter, e.Kind, e.Worker, e.Factor)
	case KindPartitionStart, KindPartitionEnd:
		return fmt.Sprintf("iter=%d %s w[%d,%d)", e.Iter, e.Kind, e.Lo, e.Hi)
	case KindBurst, KindDegraded:
		return fmt.Sprintf("iter=%d %s", e.Iter, e.Kind)
	default:
		return fmt.Sprintf("iter=%d %s w%d", e.Iter, e.Kind, e.Worker)
	}
}

// Crash schedules worker Worker to go down at iteration At. If RestartAfter
// is positive the worker is back for iteration At+RestartAfter; otherwise
// the crash is permanent.
type Crash struct {
	Worker int
	At     int
	// RestartAfter is the number of iterations the worker stays down
	// (<= 0 = forever).
	RestartAfter int
}

// down reports whether this crash keeps the worker down at iter.
func (c Crash) down(iter int) bool {
	if iter < c.At {
		return false
	}
	return c.RestartAfter <= 0 || iter < c.At+c.RestartAfter
}

// Slowdown schedules transient slow windows for one worker: the worker's
// compute and upload latencies are multiplied by Factor while a window is
// active. With Every == 0 there is a single window [From, To) (To <= 0 =
// open-ended); with Every > 0 the window recurs — iterations iter >= From
// (and < To unless To <= 0) are slowed when (iter-From) mod Every < Span.
type Slowdown struct {
	Worker   int
	From, To int
	// Every is the recurrence period (0 = one contiguous window).
	Every int
	// Span is the slow iterations per period (only with Every > 0).
	Span int
	// Factor multiplies the worker's compute and upload latency (> 0).
	Factor float64
}

// active reports whether the window covers iter.
func (s Slowdown) active(iter int) bool {
	if iter < s.From || (s.To > 0 && iter >= s.To) {
		return false
	}
	if s.Every <= 0 {
		return true
	}
	return (iter-s.From)%s.Every < s.Span
}

// starts reports whether a slow window begins exactly at iter.
func (s Slowdown) starts(iter int) bool {
	return s.active(iter) && (iter == s.From || !s.active(iter-1))
}

// ends reports whether a slow window ends exactly at iter (first iteration
// after a window).
func (s Slowdown) ends(iter int) bool {
	return !s.active(iter) && iter > s.From && s.active(iter-1)
}

// Partition makes the contiguous worker range [Lo, Hi) unreachable from the
// master for iterations [From, To): the workers keep computing and
// transmitting, but the master loses every one of their transmissions in
// the window.
type Partition struct {
	From, To int
	Lo, Hi   int
}

func (p Partition) covers(w, iter int) bool {
	return iter >= p.From && iter < p.To && w >= p.Lo && w < p.Hi
}

// DropBursts injects correlated (bursty) message loss: each iteration
// starts a burst with probability StartProb (an independent seeded draw per
// iteration); while a burst is in progress — Length iterations from its
// start, overlapping bursts merge — each worker's transmission is lost with
// probability Frac (a seeded draw per worker and iteration). This is the
// correlated counterpart of Plan.Drop.
type DropBursts struct {
	// StartProb is the per-iteration burst-start probability in [0, 1].
	StartProb float64
	// Length is how many iterations a burst lasts (>= 1).
	Length int
	// Frac is the per-worker loss probability during a burst in (0, 1].
	Frac float64
}

// Plan is a deterministic fault schedule for an n-worker cluster. The zero
// value (and a nil *Plan) injects no faults. Plans are immutable after
// construction and safe for concurrent use from any number of goroutines —
// every query is a pure function of the fields and the seed.
type Plan struct {
	// N is the worker count the plan is built for; it must match the
	// cluster's n.
	N int
	// Seed drives every probabilistic decision (drop bursts and Drop). Two
	// plans with equal rules and seeds schedule identical fault sequences on
	// every runtime.
	Seed uint64
	// Drop is the i.i.d. master-side loss probability in [0, 1): each
	// worker's transmission of each iteration is lost independently with
	// this probability (workers do not retransmit). Drops emit no event.
	Drop float64

	Crashes    []Crash
	Slowdowns  []Slowdown
	Partitions []Partition
	// Bursts, if non-nil, adds correlated drop bursts.
	Bursts *DropBursts
}

// Validate checks the plan's rules against its worker count.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.N <= 0 {
		return fmt.Errorf("faults: plan needs a positive worker count N, got %d", p.N)
	}
	if p.Drop < 0 || p.Drop >= 1 {
		return fmt.Errorf("faults: drop probability %v outside [0,1)", p.Drop)
	}
	for _, c := range p.Crashes {
		if c.Worker < 0 || c.Worker >= p.N {
			return fmt.Errorf("faults: crash worker %d out of range [0,%d)", c.Worker, p.N)
		}
		if c.At < 0 {
			return fmt.Errorf("faults: crash of worker %d at negative iteration %d", c.Worker, c.At)
		}
	}
	for _, s := range p.Slowdowns {
		if s.Worker < 0 || s.Worker >= p.N {
			return fmt.Errorf("faults: slowdown worker %d out of range [0,%d)", s.Worker, p.N)
		}
		if s.Factor <= 0 {
			return fmt.Errorf("faults: slowdown factor %v for worker %d must be positive", s.Factor, s.Worker)
		}
		if s.From < 0 || (s.To > 0 && s.From >= s.To) {
			return fmt.Errorf("faults: slowdown iteration window [%d,%d) for worker %d invalid", s.From, s.To, s.Worker)
		}
		if s.Every > 0 && (s.Span <= 0 || s.Span > s.Every) {
			return fmt.Errorf("faults: periodic slowdown for worker %d needs 0 < Span <= Every, got span=%d every=%d",
				s.Worker, s.Span, s.Every)
		}
	}
	for _, pa := range p.Partitions {
		if pa.Lo < 0 || pa.Hi > p.N || pa.Lo >= pa.Hi {
			return fmt.Errorf("faults: partition worker range [%d,%d) invalid for n=%d", pa.Lo, pa.Hi, p.N)
		}
		if pa.From < 0 || pa.From >= pa.To {
			return fmt.Errorf("faults: partition iteration window [%d,%d) invalid", pa.From, pa.To)
		}
	}
	if b := p.Bursts; b != nil {
		if b.StartProb < 0 || b.StartProb > 1 {
			return fmt.Errorf("faults: burst start probability %v outside [0,1]", b.StartProb)
		}
		if b.Length < 1 {
			return fmt.Errorf("faults: burst length %d must be >= 1", b.Length)
		}
		if b.Frac <= 0 || b.Frac > 1 {
			return fmt.Errorf("faults: burst loss fraction %v outside (0,1]", b.Frac)
		}
	}
	return nil
}

// Active reports whether worker w is up at iteration iter (not inside a
// crash window). A nil plan keeps every worker active.
func (p *Plan) Active(w, iter int) bool {
	if p == nil {
		return true
	}
	for _, c := range p.Crashes {
		if c.Worker == w && c.down(iter) {
			return false
		}
	}
	return true
}

// SlowFactor returns the multiplicative latency factor applied to worker
// w's compute and upload at iteration iter: the product of every slowdown
// window covering the iteration, 1 outside windows.
func (p *Plan) SlowFactor(w, iter int) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, s := range p.Slowdowns {
		if s.Worker == w && s.active(iter) {
			f *= s.Factor
		}
	}
	return f
}

// MasterDrop reports whether worker w's transmission of iteration iter is
// lost before the master can use it (partition window, drop burst or i.i.d.
// Drop).
func (p *Plan) MasterDrop(w, iter int) bool {
	if p == nil {
		return false
	}
	for _, pa := range p.Partitions {
		if pa.covers(w, iter) {
			return true
		}
	}
	if p.Bursts != nil && p.burstActive(iter) && p.u01(tagBurstDrop, uint64(iter), uint64(w)) < p.Bursts.Frac {
		return true
	}
	return p.Drop > 0 && p.u01(tagDrop, uint64(iter), uint64(w)) < p.Drop
}

// Contributing reports whether worker w can possibly contribute to
// iteration iter's decode: it is active and its transmission is not
// scheduled to be lost. The master engine sums this over the workers to
// detect iterations that cannot decode before running them.
func (p *Plan) Contributing(w, iter int) bool {
	return p.Active(w, iter) && !p.MasterDrop(w, iter)
}

// burstStarts reports whether a drop burst starts exactly at iter.
func (p *Plan) burstStarts(iter int) bool {
	if p.Bursts == nil || iter < 0 {
		return false
	}
	return p.u01(tagBurstStart, uint64(iter), 0) < p.Bursts.StartProb
}

// burstActive reports whether any burst covers iter (bursts last Length
// iterations; overlaps merge).
func (p *Plan) burstActive(iter int) bool {
	for s := iter; s > iter-p.Bursts.Length; s-- {
		if p.burstStarts(s) {
			return true
		}
	}
	return false
}

// EventsAt visits the fault events taking effect at iteration iter in a
// deterministic order: crashes, restarts, slowdown edges, partition edges,
// burst starts; within a kind, rule order (scenario builders emit rules in
// worker order). The visitor style keeps the steady-state fault path free
// of allocations.
func (p *Plan) EventsAt(iter int, visit func(Event)) {
	if p == nil {
		return
	}
	for _, c := range p.Crashes {
		if c.At == iter {
			visit(Event{Iter: iter, Kind: KindCrash, Worker: c.Worker})
		}
		if c.RestartAfter > 0 && c.At+c.RestartAfter == iter {
			visit(Event{Iter: iter, Kind: KindRestart, Worker: c.Worker})
		}
	}
	for _, s := range p.Slowdowns {
		if s.starts(iter) {
			visit(Event{Iter: iter, Kind: KindSlowStart, Worker: s.Worker, Factor: s.Factor})
		}
		if s.ends(iter) {
			visit(Event{Iter: iter, Kind: KindSlowEnd, Worker: s.Worker})
		}
	}
	for _, pa := range p.Partitions {
		if pa.From == iter {
			visit(Event{Iter: iter, Kind: KindPartitionStart, Worker: -1, Lo: pa.Lo, Hi: pa.Hi})
		}
		if pa.To == iter {
			visit(Event{Iter: iter, Kind: KindPartitionEnd, Worker: -1, Lo: pa.Lo, Hi: pa.Hi})
		}
	}
	if p.burstStarts(iter) {
		visit(Event{Iter: iter, Kind: KindBurst, Worker: -1})
	}
}

// Events collects EventsAt over iterations [0, iters) into a slice (a
// convenience for tests and tooling; the engine uses the visitor form).
func (p *Plan) Events(iters int) []Event {
	var out []Event
	for it := 0; it < iters; it++ {
		p.EventsAt(it, func(ev Event) { out = append(out, ev) })
	}
	return out
}

// ---------------------------------------------------------------------------
// Deterministic per-(tag, iteration, worker) draws
// ---------------------------------------------------------------------------

// Domain-separation tags for the plan's independent decision streams.
const (
	tagBurstStart uint64 = 0xb075_7a77
	tagBurstDrop  uint64 = 0xd307_d0bb
	tagDrop       uint64 = 0x11d_d409
)

// u01 returns a uniform [0,1) draw that is a pure function of the plan
// seed, a domain tag and two coordinates — the same value no matter when,
// where or how often it is asked for.
func (p *Plan) u01(tag, a, b uint64) float64 {
	h := mix(mix(mix(p.Seed^0x9e3779b97f4a7c15, tag), a), b)
	return float64(h>>11) / (1 << 53)
}

// mix is the splitmix64 finalizer over a running hash; it decorrelates the
// coordinate tuple into an effectively independent 64-bit stream.
func mix(h, v uint64) uint64 {
	h += v + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
