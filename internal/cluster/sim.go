package cluster

import (
	"context"
	"slices"

	"bcc/internal/coding"
	"bcc/internal/trace"
	"bcc/internal/wire"
)

// The sim transport runs the master/worker timing model on a virtual clock:
// worker latencies are drawn from cfg.Latency, arrivals are ordered in
// simulated time exactly as the discrete-event scheduler would fire them
// (time order, ties broken by worker index — each worker contributes one
// upload event per iteration, so a stable sort realizes the identical
// order), and the engine advances the optimizer the moment the decoder
// reports decodability — exactly the semantics of the live transports, but
// deterministic and orders of magnitude faster. This is the transport the
// experiment harness uses to regenerate the paper's figures.
//
// The timing model needs no gradient: each worker's round (workerRound,
// the one the real workers run too) draws its latencies without computing,
// so Broadcast draws every worker's round and orders the arrivals, and Next
// runs only the round of the arrival it hands the engine. The workers past
// the decode are never computed, and every round starts with all workers
// idle and ends at its decode: simulating each iteration as an isolated
// round models exactly what runWorker's preemption does on the real
// runtimes.
//
// The transport owns the iteration's scratch memory: the partial-gradient
// buffers, the returned arrival's message slice and the arrivals array are
// all reused across iterations, and message payloads come from the run's
// BufferPool (the engine returns them after each decode). In steady state a
// simulated iteration therefore allocates nothing — the property the
// allocation-regression tests pin.

// RunSim executes the training run on the discrete-event simulator.
func RunSim(cfg *Config) (*Result, error) {
	return RunSimContext(context.Background(), cfg)
}

// RunSimContext is RunSim bounded by a context: cancellation returns the
// completed iterations' partial Result alongside ctx.Err(). The simulator
// checks the context before it computes each arrival the engine consumes,
// so even a single huge round is cancellable.
func RunSimContext(ctx context.Context, cfg *Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runEngine(ctx, cfg, newSimTransport(cfg))
}

type simTransport struct {
	cfg   *Config
	pool  *BufferPool
	lat   Latency
	coder *wire.VecCoder // lossy payload transform (nil for raw64)
	frac  float64        // payload byte width relative to raw64
	// rp is non-nil on Retunable plans (the nested family): each iteration
	// runs every worker's round at the level the controller activated.
	rp     coding.Retunable
	rounds []workerRounds // rounds[w] is worker w's

	// Reusable per-iteration scratch (the transport is driven by one
	// engine goroutine, strictly one iteration at a time): the partial
	// gradients and messages of the arrival Next returned last, shared by
	// every worker's round.
	scratch  roundScratch
	arrivals []simArrival
	src      simSource
}

func newSimTransport(cfg *Config) *simTransport {
	_, n, _ := cfg.Plan.Params()
	cp := cfg.comm()
	rp, _ := cfg.Plan.(coding.Retunable)
	rounds := make([]workerRounds, n)
	for w := range rounds {
		rounds[w] = newWorkerRounds(w, cfg.Plan, cfg.Model, cfg.Units, cfg.Faults, cp.frac)
	}
	return &simTransport{
		rp:     rp,
		rounds: rounds,
		cfg:    cfg,
		pool:   cfg.buffers(),
		lat:    cfg.latency(),
		coder:  cp.newCoder(),
		frac:   cp.frac,
	}
}

func (t *simTransport) Shutdown() {}

// simArrival is one worker transmission with its modelled timeline.
type simArrival struct {
	at      float64 // when the upload reached the master
	worker  int
	compute float64
	units   float64
	// drain bracket: the master's ingress occupancy for this transmission.
	drainStart, drainEnd float64
}

// cmpArrival orders arrivals in simulated time with ties broken by worker
// index — the order the DES event heap would fire them, since each worker's
// single upload event is scheduled in index order.
func cmpArrival(a, b simArrival) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	default:
		return a.worker - b.worker
	}
}

// Broadcast models the whole iteration's worker timelines up front: every
// worker's round draws its latencies in worker order, the plan's lost
// transmissions are dropped, the rest are ordered in virtual time (ties by
// worker index), then the master's receive queue is drained in arrival
// order — with a positive ingress cost the master is busy IngressPerUnit
// seconds per unit, so messages queue behind each other; with zero cost
// the drain is instantaneous at the arrival time. The query is read later,
// by Next.
func (t *simTransport) Broadcast(ctx context.Context, iter int, query []float64) (ArrivalSource, error) {
	// On Retunable plans the iteration runs at the level the engine's
	// controller just activated, the level a live worker is told in its
	// ModelUpdate.
	level := 0
	if t.rp != nil {
		level = t.rp.Level()
	}
	t.arrivals = t.arrivals[:0]
	for w := range t.rounds {
		comp, up, msgs := t.rounds[w].at(level).draw(t.lat, iter)
		if msgs == 0 || t.cfg.Faults.MasterDrop(w, iter) {
			continue // nothing sent, or lost on the way to the master
		}
		t.arrivals = append(t.arrivals, simArrival{
			at:      comp + up,
			worker:  w,
			compute: comp, units: float64(msgs),
		})
	}
	slices.SortFunc(t.arrivals, cmpArrival)

	var freeAt float64
	for i := range t.arrivals {
		start := t.arrivals[i].at
		if start < freeAt {
			start = freeAt
		}
		done := start + t.cfg.IngressPerUnit*t.arrivals[i].units*t.frac
		freeAt = done
		t.arrivals[i].drainStart = start
		t.arrivals[i].drainEnd = done
	}
	t.src = simSource{t: t, ctx: ctx, iter: iter, level: level, query: query, arrivals: t.arrivals}
	return &t.src, nil
}

type simSource struct {
	t        *simTransport
	ctx      context.Context
	iter     int
	level    int // active level on Retunable plans, 0 otherwise
	query    []float64
	arrivals []simArrival
	next     int
	wall     float64
	// ended is set once Next reported no further arrival: the iteration
	// stalled or was cancelled, and is not traced.
	ended bool
}

// Next runs the next arrival's round and applies the payload codec — the
// only worker arithmetic the simulator does.
func (s *simSource) Next() (Arrival, bool, error) {
	if err := s.ctx.Err(); err != nil {
		s.ended = true
		return Arrival{}, false, err
	}
	if s.next >= len(s.arrivals) {
		s.ended = true
		return Arrival{}, false, nil
	}
	sa := s.arrivals[s.next]
	s.next++
	s.wall = sa.drainEnd
	t := s.t
	msgs := t.rounds[sa.worker].at(s.level).run(s.query, &t.scratch, t.pool)
	// The wire boundary of the simulated runtime: the canonical lossy
	// transform is applied here, exactly where a worker's serializer would
	// apply it, so decoded values match the live and tcp runtimes bit for
	// bit.
	applyReplyCodec(t.coder, msgs)
	return Arrival{Worker: sa.worker, Compute: sa.compute, Msgs: msgs}, true, nil
}

func (s *simSource) Wall() float64 { return s.wall }

// Finish records the iteration in Config.Trace, if set: every contributing
// worker's modelled span in arrival order, counted when the engine consumed
// it before the decode. The tail past the decode needs timings only, never
// payloads.
func (s *simSource) Finish() {
	rec := s.t.cfg.Trace
	if rec == nil || s.ended {
		return
	}
	spans := make([]trace.WorkerSpan, len(s.arrivals))
	for i, sa := range s.arrivals {
		spans[i] = trace.WorkerSpan{
			Worker:     sa.worker,
			ComputeEnd: sa.compute,
			Arrive:     sa.at,
			DrainStart: sa.drainStart,
			DrainEnd:   sa.drainEnd,
			Counted:    i < s.next,
			Units:      sa.units,
		}
	}
	rec.Add(trace.Iteration{Iter: s.iter, DecodeTime: s.wall, Spans: spans})
}
