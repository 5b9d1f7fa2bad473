package cluster

import "bcc/internal/faults"

// Observers give callers visibility into a run while it executes. The master
// engine (engine.go) invokes the hooks inline from its single iteration
// loop, so every runtime — sim, live, tcp — reports through the same code
// path and an observer attached to any of them sees the same sequence of
// callbacks for the same spec and seed. Hooks run synchronously on the
// master goroutine: a slow observer slows the master exactly like a slow
// optimizer would, and no locking is needed to accumulate state inside one.

// DecodeEvent describes the instant an iteration's gradient became
// decodable — the end of the iteration's arrivals, before the optimizer
// advances. It is the paper's "recovery threshold reached" moment.
type DecodeEvent struct {
	// Iter is the iteration index.
	Iter int
	// Wall is the elapsed time at the decode point (virtual seconds on the
	// sim runtime, scaled real seconds on the live runtimes).
	Wall float64
	// WorkersHeard is the realized recovery threshold |W|.
	WorkersHeard int
	// Units is the communication load counted so far.
	Units float64
}

// Observer receives lifecycle callbacks from the master engine.
//
// OnDecode fires the moment an iteration's gradient becomes decodable;
// OnIteration fires once per completed iteration, after the optimizer has
// advanced, with the exact IterStats value that will appear in Result.Iters;
// OnWorkerFault fires at the start of each iteration for every scheduled
// fault event taking effect (crashes, restarts, slowdown and partition
// edges, burst starts — see Config.Faults), in the fault plan's
// deterministic order, plus once with a KindDegraded event when the run is
// about to degrade (ErrBelowThreshold fail-fast or a stalled iteration);
// OnRunEnd fires once with the final Result whenever a run produces one —
// including the partial Result of a cancelled or early-stopped run. Runs
// that die without a Result (stall, broken transport) do not call OnRunEnd.
type Observer interface {
	OnIteration(IterStats)
	OnDecode(DecodeEvent)
	OnWorkerFault(faults.Event)
	OnRunEnd(*Result)
}

// ObserverFuncs adapts free functions to the Observer interface; nil fields
// are no-ops. The zero value is a valid observer that observes nothing.
type ObserverFuncs struct {
	Iteration func(IterStats)
	Decode    func(DecodeEvent)
	Fault     func(faults.Event)
	RunEnd    func(*Result)
}

// OnIteration implements Observer.
func (o ObserverFuncs) OnIteration(st IterStats) {
	if o.Iteration != nil {
		o.Iteration(st)
	}
}

// OnDecode implements Observer.
func (o ObserverFuncs) OnDecode(ev DecodeEvent) {
	if o.Decode != nil {
		o.Decode(ev)
	}
}

// OnWorkerFault implements Observer.
func (o ObserverFuncs) OnWorkerFault(ev faults.Event) {
	if o.Fault != nil {
		o.Fault(ev)
	}
}

// OnRunEnd implements Observer.
func (o ObserverFuncs) OnRunEnd(res *Result) {
	if o.RunEnd != nil {
		o.RunEnd(res)
	}
}

// MultiObserver fans every callback out to obs in order. Nil entries are
// skipped; with no non-nil entries it returns nil (no observation).
func MultiObserver(obs ...Observer) Observer {
	flat := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	if len(flat) == 0 {
		return nil
	}
	return flat
}

type multiObserver []Observer

func (m multiObserver) OnIteration(st IterStats) {
	for _, o := range m {
		o.OnIteration(st)
	}
}

func (m multiObserver) OnDecode(ev DecodeEvent) {
	for _, o := range m {
		o.OnDecode(ev)
	}
}

func (m multiObserver) OnWorkerFault(ev faults.Event) {
	for _, o := range m {
		o.OnWorkerFault(ev)
	}
}

func (m multiObserver) OnRunEnd(res *Result) {
	for _, o := range m {
		o.OnRunEnd(res)
	}
}
