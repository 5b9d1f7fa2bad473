package cluster

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bcc/internal/model"
	"bcc/internal/vecmath"
)

// The worker-loop tests drive runWorker directly — a scripted updates
// channel in, a recording send out — and pin the one worker semantics: a
// worker only ever works for the newest query it has seen, a fresher query
// (or a shutdown) cuts any latency sleep short without leaking the encoded
// payload, and sleeping allocates nothing.

// longSleep is a virtual latency no test waits out (TimeScale 1): a phase
// that sleeps it only ever ends by preemption.
const longSleep = 60.0

// signalLatency is Fixed plus a notification each time the worker draws an
// upload latency — the last thing it does before the upload sleep.
type signalLatency struct {
	Fixed
	uploading chan int
}

func (l signalLatency) Upload(w, iter int, units float64) float64 {
	l.uploading <- iter
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
		replies: make(chan Reply, 8),
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

// TestWorkerPreemptedUploadSendsNothing: a fresher query arriving during the
// upload sleep drops the stale iteration — no reply — and the payload it had
// already encoded goes back to the pool: three preempted rounds run on one
// buffer, which is in the free list at exit (Gets == Puts).
func TestWorkerPreemptedUploadSendsNothing(t *testing.T) {
	lat := signalLatency{Fixed{PerUnit: longSleep}, make(chan int)}
	r := newWorkerRig(t, lat)
	r.start()
	r.send(0)
	for iter := 0; iter < 3; iter++ {
		if got := <-lat.uploading; got != iter {
			t.Fatalf("worker reached the upload of iteration %d, want %d", got, iter)
		}
		// The payload is encoded and the worker is entering its upload sleep.
		if iter < 2 {
			r.send(iter + 1)
		} else {
			r.send(-1)
		}
	}
	r.wait(t)
	if n := len(r.replies); n != 0 {
		t.Fatalf("%d replies sent for preempted iterations", n)
	}
	if n := r.pooled(); n != 1 {
		t.Fatalf("pool holds %d buffers after three preempted rounds, want the 1 they shared", n)
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
