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
// The transport owns the iteration's scratch memory: per-worker partial-
// gradient buffers, per-worker message slices, and the arrivals array are
// all reused across iterations, and message payloads come from the run's
// BufferPool (the engine returns them after each decode). In steady state a
// simulated iteration therefore allocates nothing — the property the
// allocation-regression tests pin.
//
// Live workers drop stale work the instant a fresher broadcast reaches them
// (RunWorker), so every round starts with all workers idle, which is
// precisely what simulating each iteration as an isolated round already
// models. The straggler tail still ends each round: RoundEnd charges its
// drain to Result.TotalElapsed, while Result.TotalWall stops at the decode.

// RunSim executes the training run on the discrete-event simulator.
func RunSim(cfg *Config) (*Result, error) {
	return RunSimContext(context.Background(), cfg)
}

// RunSimContext is RunSim bounded by a context: cancellation returns the
// completed iterations' partial Result alongside ctx.Err(). The simulator
// checks the context between workers while simulating an iteration, so even
// a single huge round is cancellable.
func RunSimContext(ctx context.Context, cfg *Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runEngine(ctx, cfg, newSimTransport(cfg))
}

type simTransport struct {
	cfg    *Config
	pool   *BufferPool
	lat    Latency
	points []int
	n      int
	coder  *wire.VecCoder // lossy payload transform (nil for raw64)
	frac   float64        // payload byte width relative to raw64
	// rp is non-nil on Retunable plans (the nested family): each
	// iteration's worker pipelines then use the ACTIVE level's assignment
	// prefix and point count, mirroring what a live worker derives from the
	// broadcast's level. prefPoints[w][k] is the point count of worker w's
	// first k assigned units.
	rp         coding.Retunable
	prefPoints [][]int

	// Reusable per-iteration scratch (the transport is driven by one
	// engine goroutine, strictly one iteration at a time).
	parts    [][]float64        // partial-gradient buffers, max assignment size
	msgs     [][]coding.Message // per-worker encoded messages, backing reused
	arrivals []simArrival
	src      simSource
}

func newSimTransport(cfg *Config) *simTransport {
	_, n, _ := cfg.Plan.Params()
	cp := cfg.comm()
	rp, _ := cfg.Plan.(coding.Retunable)
	var prefPoints [][]int
	if rp != nil {
		prefPoints = prefixPoints(cfg.Plan.Assignments(), cfg.Units)
	}
	return &simTransport{
		rp:         rp,
		prefPoints: prefPoints,
		cfg:        cfg,
		pool:       cfg.buffers(),
		lat:        withFaultSlowdowns(cfg.latency(), cfg.Faults),
		points:     workerPoints(cfg.Plan, cfg.Units),
		n:          n,
		coder:      cp.newCoder(),
		frac:       cp.frac,
		msgs:       make([][]coding.Message, n),
	}
}

func (t *simTransport) Traits() Traits { return Traits{Virtual: true} }
func (t *simTransport) Shutdown()      {}

// simArrival is one worker transmission with its modelled timeline.
type simArrival struct {
	at      float64 // when the upload reached the master
	worker  int
	bcast   float64
	compute float64
	units   float64
	msgs    []coding.Message
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

// Broadcast simulates the whole iteration's worker pipelines up front:
// arrivals are ordered in virtual time (ties by worker index), then the
// master's receive queue is drained in arrival order — with a positive
// ingress cost the master is busy IngressPerUnit seconds per unit, so
// messages queue behind each other; with zero cost the drain is
// instantaneous at the arrival time.
func (t *simTransport) Broadcast(ctx context.Context, iter int, query []float64) (ArrivalSource, error) {
	// On Retunable plans the iteration runs at the level the engine's
	// controller just activated: workers process only the active prefix of
	// their assignment, exactly like a live worker told the level in its
	// ModelUpdate.
	level := 0
	if t.rp != nil {
		level = t.rp.Level()
	}
	t.arrivals = t.arrivals[:0]
	for w := 0; w < t.n; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !t.cfg.Faults.Contributing(w, iter) {
			continue // crashed, or its transmission is lost this iteration
		}
		assign, pts := t.cfg.Plan.Assignments()[w], t.points[w]
		if level > 0 {
			assign, pts = assign[:level], t.prefPoints[w][level]
		}
		bcast := t.lat.Broadcast(w, iter)
		comp := t.lat.Compute(w, iter, pts)
		t.parts = gradientPartsInto(t.cfg.Model, t.cfg.Units, assign,
			query, t.cfg.ComputeParallelism, t.parts)
		t.msgs[w] = t.cfg.Plan.EncodeInto(t.msgs[w][:0], w, t.parts, t.pool)
		msgs := t.msgs[w]
		if len(msgs) == 0 {
			continue // worker holds no data (uncoded with n > m)
		}
		// The wire boundary of the simulated runtime: the canonical lossy
		// transform is applied here, exactly where a TCP worker's serializer
		// would apply it, so decoded values match the socket runtimes bit
		// for bit.
		applyReplyCodec(t.coder, msgs)
		var units float64
		for _, msg := range msgs {
			units += msg.Units
		}
		// Upload time is charged per transmitted byte: compressed payloads
		// scale the unit load by the codec's byte fraction.
		up := t.lat.Upload(w, iter, units*t.frac)
		t.arrivals = append(t.arrivals, simArrival{
			at:     bcast + comp + up,
			worker: w,
			bcast:  bcast, compute: comp, units: units,
			msgs: msgs,
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
	t.src = simSource{t: t, arrivals: t.arrivals}
	return &t.src, nil
}

type simSource struct {
	t        *simTransport
	arrivals []simArrival
	next     int
	wall     float64
}

func (s *simSource) Next() (Arrival, bool, error) {
	if s.next >= len(s.arrivals) {
		return Arrival{}, false, nil
	}
	sa := s.arrivals[s.next]
	s.next++
	s.wall = sa.drainEnd
	arr := Arrival{Worker: sa.worker, Compute: sa.compute, Units: sa.units, Msgs: sa.msgs}
	if s.t.cfg.Trace != nil {
		arr.Span = &trace.WorkerSpan{
			Worker:     sa.worker,
			BcastEnd:   sa.bcast,
			ComputeEnd: sa.bcast + sa.compute,
			Arrive:     sa.at,
			DrainStart: sa.drainStart,
			DrainEnd:   sa.drainEnd,
			Units:      sa.units,
		}
	}
	return arr, true, nil
}

func (s *simSource) Wall() float64 { return s.wall }

// RoundEnd is when the last transmission finishes draining — the end of the
// round, straggler tail included.
func (s *simSource) RoundEnd() float64 {
	if len(s.arrivals) == 0 {
		return 0
	}
	return s.arrivals[len(s.arrivals)-1].drainEnd
}

// Finish recycles the payload buffers of the arrivals the engine never
// consumed (the post-decode straggler tail in non-tracing runs); the engine
// itself returns the consumed ones after the decode.
func (s *simSource) Finish() {
	for _, sa := range s.arrivals[s.next:] {
		recycleMsgs(s.t.pool, sa.msgs)
	}
	s.next = len(s.arrivals)
}
