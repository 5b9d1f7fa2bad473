package cluster

import (
	"context"
	"fmt"
	"time"

	"bcc/internal/coding"
	"bcc/internal/faults"
	"bcc/internal/wire"
)

// The live runtimes execute the run with real concurrent workers — one
// goroutine per worker — speaking the wire protocol over in-process pipes
// (live) or loopback TCP sockets (tcp). Latency draws are injected as scaled
// sleeps, so the realized arrival order matches the latency model while the
// gradients are computed for real. The one fabric (tcp.go) is adapted to the
// master engine (engine.go) by the single liveTransport below; the master
// iteration logic itself lives in the engine, not here.

// ModelUpdate is the master-to-worker broadcast for one iteration, the wire
// model frame itself. Iter < 0 signals shutdown. Level is the active
// redundancy level of a Retunable plan for this iteration (controller.go):
// the worker encodes with that level's plan and processes only the matching
// prefix of its assignment. 0 on fixed plans (and treated as "use the plan's
// max level" defensively).
type ModelUpdate = wire.Model

// Reply is a worker-to-master transmission, the wire reply frame itself: the
// encoded messages of one iteration plus the worker's drawn (virtual)
// compute time, which the master uses for the paper's computation-time
// metric.
type Reply = wire.Reply

// LiveOptions tunes the live and tcp runtimes.
type LiveOptions struct {
	// TimeScale converts virtual latency seconds into real sleep seconds
	// (default 1e-3: a 10 s virtual iteration sleeps 10 ms).
	TimeScale float64
	// Timeout aborts an iteration whose decoder starves (default 30 s).
	Timeout time.Duration
	// TCP carries the wire frames over real loopback TCP sockets instead of
	// in-process pipes; the protocol is the same either way.
	TCP bool
	// Codec named the TCP frame encoding.
	//
	// Deprecated: wire is the only frame encoding; leave Codec empty. "" and
	// "wire" are accepted, anything else fails the run.
	Codec string
	// Drain makes the run end only after the fabric has drained: every
	// in-flight straggler reply frame is read off the connections (and
	// counted) before the Result is assembled, so Result.TotalWireIn/Out are
	// what the workers really sent instead of racing the teardown. Cheap — the
	// shutdown broadcast cuts every worker's sleep short — and turned on by
	// the measurement harnesses (bench, the service).
	Drain bool
}

func (o *LiveOptions) defaults() {
	if o.TimeScale <= 0 {
		o.TimeScale = 1e-3
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
}

// fabric is the communication substrate under the live transport: the
// connections to the workers, nothing more. The master-side iteration
// semantics live in the engine; the timing/fault bookkeeping lives in
// liveTransport.
//
// Broadcast consumes mu.Query before it returns (it is encoded into the
// broadcast frame), so the caller may overwrite the query right after. Each
// Reply's Msgs slice is the master's from then on: the live transport
// recycles it through the run's BufferPool once the engine has offered its
// messages.
type fabric interface {
	Broadcast(mu ModelUpdate) error
	Replies() <-chan Reply
	Close() error
}

// RunLive executes the training run with real concurrent workers over
// in-process pipes (default) or loopback TCP (opts.TCP).
func RunLive(cfg *Config, opts LiveOptions) (*Result, error) {
	return RunLiveContext(context.Background(), cfg, opts)
}

// RunLiveContext is RunLive bounded by a context: cancellation interrupts
// the master even mid-iteration (while it blocks for worker replies) and
// returns the completed iterations' partial Result alongside ctx.Err().
// Worker goroutines and listeners are torn down on every exit path; a
// worker mid-sleep is woken by the closing fabric and exits.
func RunLiveContext(ctx context.Context, cfg *Config, opts LiveOptions) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkFrameCodec(opts.Codec); err != nil {
		return nil, err
	}
	opts.defaults()
	fab, err := newFabric(cfg, opts)
	if err != nil {
		return nil, err
	}
	defer fab.Close()
	return runEngine(ctx, cfg, newLiveTransport(cfg, fab, opts))
}

// ---------------------------------------------------------------------------
// Live transport: adapts any fabric to the master engine
// ---------------------------------------------------------------------------

type liveTransport struct {
	cfg  *Config
	pool *BufferPool
	fab  fabric
	opts LiveOptions
	n    int
	frac float64          // payload byte width relative to raw64
	rp   coding.Retunable // non-nil on Retunable plans: broadcasts carry the level
	// src and deadline are reused by every iteration: the engine finishes one
	// ArrivalSource before it broadcasts the next query.
	src      liveSource
	deadline *time.Timer
}

func newLiveTransport(cfg *Config, fab fabric, opts LiveOptions) *liveTransport {
	opts.defaults()
	_, n, _ := cfg.Plan.Params()
	rp, _ := cfg.Plan.(coding.Retunable)
	deadline := time.NewTimer(opts.Timeout)
	deadline.Stop()
	return &liveTransport{
		rp:       rp,
		cfg:      cfg,
		pool:     cfg.buffers(),
		fab:      fab,
		opts:     opts,
		n:        n,
		frac:     cfg.comm().frac,
		deadline: deadline,
	}
}

// WireTotals implements wireCounter by delegating to the fabric, which
// counts every byte crossing the master's connections, pipes and sockets
// alike; a fabric without the capability reports zeros.
func (t *liveTransport) WireTotals() (in, out int64) {
	if wc, ok := t.fab.(wireCounter); ok {
		return wc.WireTotals()
	}
	return 0, 0
}

// wireDrainer is the optional transport capability the engine uses to settle
// measured wire totals before assembling a Result: block until every
// in-flight reply frame has been read off the connections (bounded by the
// fabric's drain timeout), so straggler bytes land in the totals instead of
// racing the teardown.
type wireDrainer interface {
	DrainWire()
}

// DrainWire implements wireDrainer by draining the underlying fabric when
// LiveOptions.Drain asked for settled totals; a no-op otherwise.
func (t *liveTransport) DrainWire() {
	if t.opts.Drain {
		DrainFabric(t.fab, t.opts.Timeout)
	}
}

// expectedReplies counts the workers that will transmit for iteration iter:
// every worker the fault plan has not crashed. Workers whose transmission is
// lost (partition, burst or i.i.d. drop) still transmit — the loss is on the
// master's side — so they stay in the count and their arrivals are discarded
// in Next.
func (t *liveTransport) expectedReplies(iter int) int {
	expected := 0
	for w := 0; w < t.n; w++ {
		if t.cfg.Faults.Active(w, iter) {
			expected++
		}
	}
	return expected
}

func (t *liveTransport) Shutdown() { _ = t.fab.Broadcast(ModelUpdate{Iter: -1}) }

func (t *liveTransport) Broadcast(ctx context.Context, iter int, query []float64) (ArrivalSource, error) {
	mu := ModelUpdate{Iter: iter, Query: query}
	if t.rp != nil {
		// Read on the engine goroutine, after the controller's SetLevel and
		// before any worker can observe the broadcast: the level the master
		// will decode this iteration at.
		mu.Level = t.rp.Level()
	}
	if err := t.fab.Broadcast(mu); err != nil {
		return nil, err
	}
	t.src = liveSource{
		t:        t,
		ctx:      ctx,
		iter:     iter,
		expected: t.expectedReplies(iter),
		start:    time.Now(),
	}
	t.deadline.Reset(t.opts.Timeout)
	return &t.src, nil
}

type liveSource struct {
	t        *liveTransport
	ctx      context.Context
	iter     int
	expected int
	start    time.Time
	replies  int
	// held is the Msgs slice of the arrival Next returned last; the engine is
	// done with it by the next Next or Finish, which recycle it.
	held []coding.Message
}

func (s *liveSource) Next() (Arrival, bool, error) {
	s.t.pool.putMsgs(s.held)
	s.held = nil
	for {
		if s.replies >= s.expected {
			// Every transmitting worker has reported (some possibly dropped).
			return Arrival{}, false, nil
		}
		select {
		case rep := <-s.t.fab.Replies():
			if rep.Iter != s.iter {
				// Stale reply from a straggler's previous round; its payload
				// buffers will never reach the decoder, so recycle them here.
				discardReply(s.t.pool, rep)
				continue
			}
			s.replies++
			if s.t.cfg.Faults.MasterDrop(rep.Worker, s.iter) {
				// Transmission lost in the network (partition window, drop
				// burst or i.i.d. drop); the worker will not retransmit, but
				// its reply still counts toward the stall check above. The
				// lost payload is recycled like the wire would discard it.
				discardReply(s.t.pool, rep)
				continue
			}
			var units float64
			for _, msg := range rep.Msgs {
				units += msg.Units
			}
			if s.t.cfg.IngressPerUnit > 0 {
				// The master's NIC drains this message before the next can
				// be taken — same bottleneck the sim transport models, with
				// the drain scaled by the codec's byte fraction like the
				// transmitted bytes are.
				sleepVirtual(s.t.cfg.IngressPerUnit*units*s.t.frac, s.t.opts.TimeScale)
			}
			s.held = rep.Msgs
			return Arrival{Worker: rep.Worker, Compute: rep.Compute, Msgs: rep.Msgs}, true, nil
		case <-s.ctx.Done():
			return Arrival{}, false, s.ctx.Err()
		case <-s.t.deadline.C:
			return Arrival{}, false, fmt.Errorf("cluster: iteration %d timed out after %v (%d/%d replies)",
				s.iter, s.t.opts.Timeout, s.replies, s.expected)
		}
	}
}

func (s *liveSource) Wall() float64 {
	return time.Since(s.start).Seconds() / s.t.opts.TimeScale
}

func (s *liveSource) Finish() {
	s.t.deadline.Stop()
	s.t.pool.putMsgs(s.held)
	s.held = nil
}

// ---------------------------------------------------------------------------
// Worker node logic (shared by the in-process workers of the live and tcp
// runtimes and by the service's out-of-process fleet workers)
// ---------------------------------------------------------------------------

// WorkerEnv is everything one worker node needs to participate in a run.
type WorkerEnv struct {
	Index int
	Plan  coding.Plan
	Model interface {
		Dim() int
		SubsetGradient(w []float64, rows []int, out []float64)
	}
	Units     [][]int
	Latency   Latency
	TimeScale float64
	// Faults, if non-nil, is the run's deterministic fault plan; must match
	// the master's Config.Faults. The worker consults it before every
	// iteration's work: while crashed it computes and transmits nothing, and
	// scheduled slowdown windows multiply its compute and upload latency.
	Faults *faults.Plan
	// Codec named the TCP frame encoding.
	//
	// Deprecated: wire is the only frame encoding; leave Codec empty. "" and
	// "wire" are accepted, anything else fails DialAndServeWorker.
	Codec string
	// Comm configures the payload codec; must match the master's
	// Config.Comm (the TCP handshake verifies this).
	Comm CommOptions
	// ComputeParallelism fans the per-example gradient computations out
	// over this many goroutines (0/1 = serial).
	ComputeParallelism int
	// Bufs, if non-nil, supplies the worker's message payload and query
	// buffers, which its send function recycles right after serialization
	// and its loop once a query is computed on. In-process workers share the
	// run's master pool; an out-of-process worker gets a private one.
	Bufs *BufferPool
}

// runWorker executes the worker protocol until a shutdown update (Iter < 0)
// or the updates channel closes: skip to the newest pending model, sleep the
// drawn broadcast + compute latency, compute the real partial gradients,
// encode, sleep the upload latency, reply. A worker only ever works for the
// newest query it has seen: the engine broadcasts iteration t+1 only after t
// has decoded, so a fresher update proves every older reply useless. Queued
// stale models are skipped at the top of each round and all three latency
// sleeps are cut short by a fresher update (or a shutdown), which is what
// the simulator and the paper's i.i.d. delay model assume — every round
// starts with all workers idle, no straggler carries a backlog into the
// next one. Which stale replies still get sent is therefore
// timing-dependent; what the master counts is not. An env.Faults plan is
// consulted before any iteration work: crashed iterations are skipped
// entirely (no latency draws, no compute, no transmission — exactly what the
// simulator models) and slowdown windows stretch the latency sleeps.
//
// The worker reuses one Msgs slice for every reply, so send must not retain
// the Reply's Msgs slice after it returns (the payload buffers are the
// receiver's, per the BufferPool protocol). release, if non-nil, receives
// each update's query once the worker is done reading it — its gradients
// are computed, or a newer update superseded it — so the connection that
// decoded it can reuse the buffer (serveWorkerConn).
func runWorker(env WorkerEnv, updates <-chan ModelUpdate, send func(Reply) error, release func([]float64)) error {
	env.Latency = withFaultSlowdowns(env.Latency, env.Faults)
	cp, err := env.Comm.resolve(env.Model.Dim())
	if err != nil {
		return err
	}
	fullAssign := env.Plan.Assignments()[env.Index]
	points := 0
	for _, u := range fullAssign {
		points += len(env.Units[u])
	}
	// Retunable plans (the nested family): the worker pins each iteration's
	// level from the broadcast itself, via immutable per-level plan views —
	// never via the shared plan's mutable active level, which the master's
	// controller may have advanced already (in-process workers share the
	// plan object; a worker may lag a broadcast behind).
	rp, _ := env.Plan.(coding.Retunable)
	var levelPlans []coding.Plan
	var levelPoints []int
	if rp != nil {
		levelPlans = make([]coding.Plan, rp.MaxLevel())
		for L := rp.MinLevel(); L <= rp.MaxLevel(); L++ {
			lp, err := rp.AtLevel(L)
			if err != nil {
				return err
			}
			levelPlans[L-1] = lp
		}
		levelPoints = prefixPoints(env.Plan.Assignments(), env.Units)[env.Index]
	}
	scale := env.TimeScale
	if scale <= 0 {
		scale = 1e-3
	}
	// Per-worker partial-gradient scratch and the Msgs slice, reused across
	// iterations; message payloads are drawn from env.Bufs and owned by the
	// receiver once sent.
	var parts [][]float64
	var msgs []coding.Message
	// One timer serves every latency sleep, so sleeping allocates nothing.
	timer := time.NewTimer(0)
	defer timer.Stop()
	// done hands mu's query back once the worker will not read it again.
	var mu ModelUpdate
	done := func() {
		if release != nil && mu.Query != nil {
			release(mu.Query)
		}
		mu.Query = nil
	}
	havePending := false
	for {
		if !havePending {
			var ok bool
			mu, ok = <-updates
			if !ok {
				return nil
			}
		}
		havePending = false
		// Skip to the most recent pending update: the master has decoded every
		// iteration before it.
	drain:
		for {
			select {
			case next, ok := <-updates:
				if !ok {
					return nil
				}
				done()
				mu = next
			default:
				break drain
			}
		}
		if mu.Iter < 0 {
			return nil
		}
		if !env.Faults.Active(env.Index, mu.Iter) {
			done()
			continue // crashed for this iteration: no work, no reply
		}
		iter := mu.Iter
		// Resolve this iteration's level view: the broadcast's level on
		// Retunable plans (0 or out-of-range defensively means max level,
		// matching the family's fixed default), the plan itself otherwise.
		encPlan, assign, pts := env.Plan, fullAssign, points
		if rp != nil {
			L := mu.Level
			if L < rp.MinLevel() || L > rp.MaxLevel() {
				L = rp.MaxLevel()
			}
			encPlan, assign, pts = levelPlans[L-1], fullAssign[:L], levelPoints[L]
		}
		if next, preempted := sleepOrPreempt(timer, env.Latency.Broadcast(env.Index, iter), scale, updates); preempted {
			done()
			mu, havePending = next, true
			continue
		}
		comp := env.Latency.Compute(env.Index, iter, pts)
		parts = gradientPartsInto(env.Model, env.Units, assign, mu.Query, env.ComputeParallelism, parts)
		done()
		if next, preempted := sleepOrPreempt(timer, comp, scale, updates); preempted {
			mu, havePending = next, true
			continue
		}
		msgs = encPlan.EncodeInto(msgs[:0], env.Index, parts, env.Bufs)
		var units float64
		for _, m := range msgs {
			units += m.Units
		}
		if next, preempted := sleepOrPreempt(timer, env.Latency.Upload(env.Index, iter, units*cp.frac), scale, updates); preempted {
			// The encoded payloads never leave this worker: recycle them, or
			// every preempted straggler would drain the pool.
			recycleMsgs(env.Bufs, msgs)
			mu, havePending = next, true
			continue
		}
		if err := send(Reply{Iter: iter, Worker: env.Index, Compute: comp, Msgs: msgs}); err != nil {
			return err
		}
	}
}

// sleepOrPreempt sleeps the scaled virtual duration on the worker's timer. A
// model update arriving mid-sleep cuts it short and is handed back to the
// caller; a closed channel is reported as a shutdown update.
func sleepOrPreempt(timer *time.Timer, virtualSeconds, scale float64, updates <-chan ModelUpdate) (ModelUpdate, bool) {
	if virtualSeconds <= 0 {
		return ModelUpdate{}, false
	}
	// Go 1.23+ timers: Reset discards any tick of the previous sleep.
	timer.Reset(time.Duration(virtualSeconds * scale * float64(time.Second)))
	select {
	case mu, ok := <-updates:
		if !ok {
			return ModelUpdate{Iter: -1}, true
		}
		return mu, true
	case <-timer.C:
		return ModelUpdate{}, false
	}
}

func sleepVirtual(virtualSeconds, scale float64) {
	if virtualSeconds <= 0 {
		return
	}
	time.Sleep(time.Duration(virtualSeconds * scale * float64(time.Second)))
}

// recycleMsgs returns the payload buffers of messages that will never reach
// the decoder (dropped or stale transmissions) to the pool.
func recycleMsgs(pool *BufferPool, msgs []coding.Message) {
	for _, msg := range msgs {
		pool.Put(msg.Vec)
	}
}

// discardReply recycles a reply the master will not decode: its payload
// buffers and its Msgs slice.
func discardReply(pool *BufferPool, rep Reply) {
	recycleMsgs(pool, rep.Msgs)
	pool.putMsgs(rep.Msgs)
}
