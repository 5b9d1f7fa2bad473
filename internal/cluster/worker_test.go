package cluster

import (
	"context"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcc/internal/faults"
	"bcc/internal/model"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// The worker-loop tests drive runWorker directly — a scripted updates
// channel in, a recording send out — and pin the one worker semantics: a
// worker only ever works for the newest query it has seen, a fresher query
// (or a shutdown) cuts any latency sleep short before the round computes or
// encodes anything, and sleeping allocates nothing.

// longSleep is a virtual latency no test waits out (TimeScale 1): a phase
// that sleeps it only ever ends by preemption.
const longSleep = 60.0

// queueingLatency is Fixed plus, at each upload draw — the last thing a
// worker does before its two sleeps — a fresher update queued on the
// worker's channel: iteration iter+1, or a shutdown once iter reaches last.
type queueingLatency struct {
	Fixed
	updates chan<- ModelUpdate
	query   []float64
	last    int
}

func (l queueingLatency) Upload(w, iter int, units float64) float64 {
	next := ModelUpdate{Iter: iter + 1, Query: l.query}
	if iter >= l.last {
		next = ModelUpdate{Iter: -1}
	}
	l.updates <- next
	return l.Fixed.Upload(w, iter, units)
}

// workerRig is one runWorker goroutine (worker 0 of a small bcc run) with
// its channels exposed.
type workerRig struct {
	env     WorkerEnv
	updates chan ModelUpdate
	replies chan Reply
	done    chan error
	query   []float64
}

// newWorkerRig prepares the rig without starting the worker, so a test can
// queue updates before it wakes.
func newWorkerRig(t *testing.T, lat Latency) *workerRig {
	t.Helper()
	cfg, mod := buildRun(t, "bcc", 8, 4, 2, 1, 901, lat)
	return &workerRig{
		env: WorkerEnv{Index: 0, Plan: cfg.Plan, Model: cfg.Model, Units: cfg.Units,
			Latency: lat, TimeScale: 1, Bufs: NewBufferPool(mod.Dim(), 0)},
		updates: make(chan ModelUpdate, 8),
		replies: make(chan Reply, 32),
		done:    make(chan error, 1),
		query:   make([]float64, mod.Dim()),
	}
}

func (r *workerRig) start() {
	go func() {
		r.done <- runWorker(r.env, r.updates, func(rep Reply) error {
			r.replies <- rep
			return nil
		}, nil)
	}()
}

func (r *workerRig) send(iter int) { r.updates <- ModelUpdate{Iter: iter, Query: r.query} }

// wait returns once runWorker has, failing if that takes anywhere near
// longSleep.
func (r *workerRig) wait(t *testing.T) {
	t.Helper()
	select {
	case err := <-r.done:
		if err != nil {
			t.Fatalf("runWorker: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runWorker did not return; a latency sleep was not preempted")
	}
}

func (r *workerRig) pooled() int {
	r.env.Bufs.mu.Lock()
	defer r.env.Bufs.mu.Unlock()
	return len(r.env.Bufs.free)
}

// TestWorkerSkipsToNewestQuery: queries t, t+1, t+2 queued before the worker
// wakes produce exactly one reply, for t+2.
func TestWorkerSkipsToNewestQuery(t *testing.T) {
	r := newWorkerRig(t, Zero{})
	for iter := 0; iter < 3; iter++ {
		r.send(iter)
	}
	r.start()
	rep := <-r.replies
	if rep.Iter != 2 {
		t.Fatalf("first reply is for iteration %d, want the newest queued (2)", rep.Iter)
	}
	r.send(-1)
	r.wait(t)
	if n := len(r.replies); n != 0 {
		t.Fatalf("%d replies beyond the one for the newest query", n)
	}
}

// queryCheckModel is a gradient model whose evaluations are slow and check
// the query they read: every broadcast of the test below is a constant
// vector, so an element that changes mid-evaluation means the query's
// buffer was rewritten under the worker.
type queryCheckModel struct {
	*model.Logistic
	torn *atomic.Int64
}

func (m queryCheckModel) SubsetGradient(w []float64, rows []int, out []float64) {
	v := w[0]
	time.Sleep(200 * time.Microsecond)
	for _, x := range w {
		if x != v {
			m.torn.Add(1)
			break
		}
	}
	m.Logistic.SubsetGradient(w, rows, out)
}

// TestTCPWorkerQueryBufferNotRewritten: a TCP worker reads each query into a
// recycled buffer. With broadcasts queued far faster than it computes — the
// skip-to-newest path, both in the connection reader and in runWorker — no
// buffer is rewritten while a gradient evaluation still reads it, and the
// worker answers the newest query. Under -race a rewrite also shows as a
// data race.
func TestTCPWorkerQueryBufferNotRewritten(t *testing.T) {
	lat := Fixed{PerPoint: 1e-4}
	cfg, mod := buildRun(t, "bcc", 8, 4, 2, 1, 901, lat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var torn atomic.Int64
	env := WorkerEnv{Index: 0, Plan: cfg.Plan, Model: queryCheckModel{mod, &torn}, Units: cfg.Units,
		Latency: lat, TimeScale: 1, Bufs: NewBufferPool(mod.Dim(), 0)}
	served := make(chan error, 1)
	go func() { served <- DialAndServeWorker(ln.Addr().String(), env) }()
	fab, err := acceptWorkers(ln, 1, 10*time.Second, nil, CommOptions{}, mod.Dim())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	const rounds = 60
	q := make([]float64, mod.Dim())
	for iter := 0; iter < rounds; iter++ {
		vecmath.Fill(q, float64(iter))
		if err := fab.Broadcast(ModelUpdate{Iter: iter, Query: q}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond) // keep the reader busy while the worker computes
	}
	replies := 0
	for last := -1; last < rounds-1; replies++ {
		select {
		case rep := <-fab.Replies():
			if rep.Iter <= last {
				t.Fatalf("reply for iteration %d after one for %d", rep.Iter, last)
			}
			last = rep.Iter
		case <-time.After(10 * time.Second):
			t.Fatalf("no reply for the newest query %d after %d replies", rounds-1, replies)
		}
	}
	if !DrainFabric(fab, 10*time.Second) {
		t.Fatal("the worker did not close its connection after the shutdown")
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d gradient evaluations saw their query rewritten", n)
	}
	if replies >= rounds {
		t.Fatalf("the worker answered all %d queries: none was queued behind another", rounds)
	}
}

// TestWorkerPreemptedRoundComputesNothing: a fresher query queued during a
// round's latency sleeps drops the round before any arithmetic — no gradient
// evaluation, no payload buffer taken from the pool, no reply — whether it
// cuts the compute or the upload sleep short, or waits in the channel when
// the worker wakes from a sleep whose timer has already fired.
func TestWorkerPreemptedRoundComputesNothing(t *testing.T) {
	phases := map[string]Fixed{
		"compute": {PerPoint: longSleep},
		"upload":  {PerUnit: longSleep},
		"expired": {PerUnit: 1e-9},
	}
	const rounds = 20
	for phase, fixed := range phases {
		t.Run(phase, func(t *testing.T) {
			t.Parallel()
			r := newWorkerRig(t, fixed)
			r.env.Latency = queueingLatency{fixed, r.updates, r.query, rounds - 1}
			var calls atomic.Int64
			r.env.Model = countingModel{r.env.Model.(model.Model), &calls}
			const stocked = 2
			for i := 0; i < stocked; i++ {
				r.env.Bufs.Put(make([]float64, r.env.Bufs.Dim()))
			}
			r.send(0)
			r.start()
			r.wait(t)
			if n := calls.Load(); n != 0 {
				t.Fatalf("%d gradient evaluations in %d preempted rounds", n, rounds)
			}
			if n := len(r.replies); n != 0 {
				t.Fatalf("%d replies sent for preempted iterations", n)
			}
			if n := r.pooled(); n != stocked {
				t.Fatalf("pool holds %d of its %d buffers after %d preempted rounds: a payload was taken", n, stocked, rounds)
			}
		})
	}
}

// drawLog is a Latency that records each worker's draws in order.
type drawLog struct {
	Latency
	mu    sync.Mutex
	draws [][]latencyDraw
}

type latencyDraw struct {
	upload bool
	iter   int
}

func (l *drawLog) record(w int, d latencyDraw) {
	l.mu.Lock()
	l.draws[w] = append(l.draws[w], d)
	l.mu.Unlock()
}

func (l *drawLog) Compute(w, iter, points int) float64 {
	l.record(w, latencyDraw{iter: iter})
	return l.Latency.Compute(w, iter, points)
}

func (l *drawLog) Upload(w, iter int, units float64) float64 {
	l.record(w, latencyDraw{upload: true, iter: iter})
	return l.Latency.Upload(w, iter, units)
}

// TestWorkerDrawsBothLatenciesEachRound: over the pipe fabric, every
// round a worker works on draws one Compute and then one Upload latency, as
// the simulator does — also for a worker so slow that each of its rounds is
// preempted in the compute sleep.
func TestWorkerDrawsBothLatenciesEachRound(t *testing.T) {
	const n, iters, slow = 8, 10, 0
	factor := make([]float64, n)
	for w := range factor {
		factor[w] = 1
	}
	factor[slow] = 1e5 // a compute sleep of minutes: only preemption ends it
	log := &drawLog{Latency: Fixed{PerPoint: 1e-2, PerUnit: 1e-2, Factor: factor}, draws: make([][]latencyDraw, n)}
	cfg, _ := buildRun(t, "cyclicrep", n, n, 3, iters, 77, log)
	if _, err := RunLive(cfg, LiveOptions{TimeScale: 1e-3, Drain: true}); err != nil {
		t.Fatal(err)
	}
	for w, draws := range log.draws {
		if len(draws)%2 != 0 {
			t.Fatalf("worker %d made %d draws, not Compute/Upload pairs: %v", w, len(draws), draws)
		}
		for i := 0; i < len(draws); i += 2 {
			c, u := draws[i], draws[i+1]
			if c.upload || !u.upload || c.iter != u.iter || (i > 0 && c.iter <= draws[i-1].iter) {
				t.Fatalf("worker %d draws %v: round %d is not one Compute then one Upload of a newer iteration", w, draws, i/2)
			}
		}
	}
	if rounds := len(log.draws[slow]) / 2; rounds < 2 {
		t.Fatalf("the slow worker worked %d rounds, want several preempted ones", rounds)
	}
}

// replyCounter is a pipe fabric that counts, per worker, the reply frames
// the master reads, whether the engine decodes them or drops them as stale.
type replyCounter struct {
	*connFabric
	out     chan Reply
	engine  chan struct{} // closed once the engine no longer reads out
	forward sync.WaitGroup
	counts  []int
}

func newReplyCounter(inner *connFabric, n int) *replyCounter {
	f := &replyCounter{connFabric: inner, out: make(chan Reply), engine: make(chan struct{}), counts: make([]int, n)}
	f.forward.Add(1)
	go func() {
		defer f.forward.Done()
		for rep := range inner.replies {
			f.counts[rep.Worker]++
			select {
			case f.out <- rep:
			case <-f.engine:
				discardReply(inner.pool, rep)
			}
		}
	}()
	return f
}

func (f *replyCounter) Replies() <-chan Reply { return f.out }

// runCountingReplies runs cfg's workers over the pipe fabric, each built
// from the run's own WorkerEnv after mut (if non-nil) has adjusted it, and
// returns the result with the reply frames the master read from each
// worker.
func runCountingReplies(t *testing.T, cfg *Config, mut func(env *WorkerEnv)) (*Result, []int) {
	t.Helper()
	_, n, _ := cfg.Plan.Params()
	opts := LiveOptions{TimeScale: 1e-3}
	opts.defaults()
	pl := newPipeListener()
	var workers sync.WaitGroup
	for w := 0; w < n; w++ {
		env := WorkerEnv{Index: w, Plan: cfg.Plan, Model: cfg.Model, Units: cfg.Units,
			Latency: cfg.latency(), TimeScale: opts.TimeScale, Faults: cfg.Faults, Bufs: cfg.buffers()}
		if mut != nil {
			mut(&env)
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			if conn, err := pl.dial(); err == nil {
				_ = serveWorkerConn(conn, env)
			}
		}()
	}
	inner, err := acceptWorkers(pl, n, opts.Timeout, cfg.buffers(), cfg.Comm, cfg.Model.Dim())
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	fab := newReplyCounter(inner, n)
	res, err := runEngine(context.Background(), cfg, newLiveTransport(cfg, fab, opts))
	close(fab.engine)
	if err != nil {
		t.Fatal(err)
	}
	// The engine's shutdown broadcast ends every worker, which closes its
	// pipe once its last frame is read; then no reader sends again.
	workers.Wait()
	inner.readers.Wait()
	close(inner.replies)
	fab.forward.Wait()
	return res, fab.counts
}

// TestWorkerRepliesEveryRoundItComputes: a worker has no preemption
// point between computing a round and sending its reply. Over the pipe
// fabric, with a shift-exponential model under which the master decodes from
// K < n workers and preempts the rest, every worker's computed rounds equal
// the reply frames the master reads from it.
func TestWorkerRepliesEveryRoundItComputes(t *testing.T) {
	const n, r, iters = 12, 3, 30
	lat, err := NewShiftExp(n, []ShiftExpParams{{
		ComputeShift: 1e-4, ComputeMu: 10, CommShift: 1e-3, CommMu: 0.5,
	}}, rngutil.New(31))
	if err != nil {
		t.Fatal(err)
	}
	cfg, mod := buildRun(t, "bcc", n, n, r, iters, 32, lat)
	calls := make([]atomic.Int64, n)
	res, counts := runCountingReplies(t, cfg, func(env *WorkerEnv) {
		env.Model = countingModel{mod, &calls[env.Index]}
	})

	if res.AvgWorkersHeard >= n {
		t.Fatalf("the master heard %.1f of %d workers: no round was outrun", res.AvgWorkersHeard, n)
	}
	total := 0
	for w := 0; w < n; w++ {
		perRound := len(cfg.Plan.Assignments()[w])
		computed := int(calls[w].Load()) / perRound
		if int(calls[w].Load()) != computed*perRound {
			t.Fatalf("worker %d made %d gradient evaluations, not whole rounds of %d", w, calls[w].Load(), perRound)
		}
		if computed != counts[w] {
			t.Errorf("worker %d computed %d rounds but wrote %d replies", w, computed, counts[w])
		}
		total += computed
	}
	if total >= n*iters {
		t.Fatalf("workers computed %d rounds of %d broadcast: none was preempted", total, n*iters)
	}
}

// TestIdleWorkersSendNothing: uncoded with n > m leaves workers that hold
// no data. Like the simulator, which has no arrival for them, a real idle
// worker sends no reply frame, and the master does not wait for one.
func TestIdleWorkersSendNothing(t *testing.T) {
	const m, n, iters = 4, 6, 5
	cfg, _ := buildRun(t, "uncoded", m, n, 1, iters, 56, Fixed{PerPoint: 1e-3})
	res, counts := runCountingReplies(t, cfg, nil)
	if len(res.Iters) != iters {
		t.Fatalf("ran %d iterations, want %d", len(res.Iters), iters)
	}
	for w := 0; w < n; w++ {
		idle := len(cfg.Plan.Assignments()[w]) == 0
		if idle != (w >= m) {
			t.Fatalf("worker %d holds %v: the placement is not the balanced one this test assumes", w, cfg.Plan.Assignments()[w])
		}
		if idle && counts[w] != 0 {
			t.Errorf("idle worker %d sent %d reply frames", w, counts[w])
		}
	}
}

// TestSimDrawsForLostTransmissions: on the simulator, under a plan that
// loses transmissions and crashes a worker from the start, the (worker,
// iteration) pairs that get latency draws are exactly the active ones —
// lost transmissions included, as a real worker draws for them — each with
// one Compute then one Upload.
func TestSimDrawsForLostTransmissions(t *testing.T) {
	const n, iters = 8, 12
	log := &drawLog{Latency: Fixed{PerPoint: 1e-2, PerUnit: 1e-2}, draws: make([][]latencyDraw, n)}
	cfg, _ := buildRun(t, "bcc", 8, n, 4, iters, 79, log)
	cfg.Faults = &faults.Plan{N: n, Seed: 9, Drop: 0.15, Crashes: []faults.Crash{{Worker: 2, At: 0}}}
	if _, err := RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for w, draws := range log.draws {
		var want []latencyDraw
		for it := 0; it < iters; it++ {
			if cfg.Faults.Active(w, it) {
				want = append(want, latencyDraw{iter: it}, latencyDraw{upload: true, iter: it})
				if cfg.Faults.MasterDrop(w, it) {
					lost++
				}
			}
		}
		if !slices.Equal(draws, want) {
			t.Errorf("worker %d draws %v, want one Compute then one Upload for each active iteration: %v", w, draws, want)
		}
	}
	if lost == 0 {
		t.Fatal("the plan lost no active worker's transmission: nothing was checked")
	}
}

// TestWorkerShutdownCutsSleep: a shutdown update or a closed updates channel
// ends the worker mid-sleep, in each of the two latency phases.
func TestWorkerShutdownCutsSleep(t *testing.T) {
	phases := map[string]Fixed{
		"compute": {PerPoint: longSleep},
		"upload":  {PerUnit: longSleep},
	}
	for phase, lat := range phases {
		for _, closed := range []bool{false, true} {
			name := phase + "/shutdown"
			if closed {
				name = phase + "/closed"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				r := newWorkerRig(t, lat)
				r.start()
				r.send(0)
				time.Sleep(20 * time.Millisecond) // let it reach the sleep
				if closed {
					close(r.updates)
				} else {
					r.send(-1)
				}
				r.wait(t)
				if n := len(r.replies); n != 0 {
					t.Fatalf("%d replies from an interrupted iteration", n)
				}
			})
		}
	}
}

// TestWorkerSleepsZeroAllocs pins the preemptible sleeps at 0 allocations by
// differencing: a steady-state round with two non-zero latency sleeps costs
// what a zero-latency round (which never touches the timer) costs.
func TestWorkerSleepsZeroAllocs(t *testing.T) {
	perRound := func(lat Latency) float64 {
		r := newWorkerRig(t, lat)
		r.start()
		iter := 0
		round := func() {
			r.send(iter)
			iter++
			recycleMsgs(r.env.Bufs, (<-r.replies).Msgs)
		}
		round() // warm the pool and the worker's gradient scratch
		allocs := testing.AllocsPerRun(100, round)
		r.send(-1)
		r.wait(t)
		return allocs
	}
	base := perRound(Zero{})
	slept := perRound(Fixed{PerPoint: 5e-6, PerUnit: 20e-6})
	if slept > base {
		t.Fatalf("a round with latency sleeps costs %.0f allocs, %.0f without: the sleeps allocate", slept, base)
	}
}
