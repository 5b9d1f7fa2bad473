// Package service implements the multi-tenant coded-training daemon: a
// long-running master that accepts job submissions over the wire protocol,
// runs each job on its own engine instance, and leases workers to jobs from
// one shared fleet.
//
// Topology. The daemon owns a single control listener. A connecting peer
// identifies itself with its first frame: KindJoin marks a fleet worker,
// which stays connected for the daemon's lifetime and alternates between
// idle (in the lease pool) and busy (leased to one job); KindSubmit,
// KindStatus or KindCancel mark a client session, a lockstep request/reply
// exchange of State frames.
//
// Isolation. Every job runs on a dedicated engine with its own BufferPool
// (capped by Options.PoolCap so one tenant cannot hoard memory), its own
// seed-derived RNG streams, fault plan, comm-plane configuration and
// Observer — nothing is shared between concurrent jobs except the fleet
// itself and the goroutine scheduler. A TCP job gets a private data-plane
// listener: each leased worker receives an Assign frame naming the job, its
// worker index and the port, dials it, and speaks the unmodified
// master/worker protocol, so the per-job traffic never multiplexes with
// another tenant's. The worker rebuilds the job from the spec bytes in the
// assignment — deterministically, since all of a job's randomness derives
// from spec seeds — and returns to the pool with an Idle frame when the
// lease ends.
//
// Admission is strictly FIFO: the head of the queue starts when enough
// workers are idle (a TCP job leases its spec's Workers, crashed ones
// included; sim and live jobs need none and run on daemon-local
// goroutines); until then the head blocks the queue. Leases release on
// every exit path — completion, cancellation, degrade below the recovery
// threshold, worker crash — because the engine broadcasts its shutdown frame
// on every exit path, so queued jobs start without restarting workers.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/wire"
)

// Options configures a daemon. The zero value listens on an ephemeral
// loopback port with no HTTP surface.
type Options struct {
	// Addr is the control/data listen address ("127.0.0.1:0" by default).
	// Fleet workers and clients both connect here; per-job data-plane
	// listeners bind ephemeral ports on the same host.
	Addr string
	// HTTPAddr, when non-empty, serves the read-only HTTP surface (/jobs,
	// /workers, /metrics, /healthz) on that address.
	HTTPAddr string
	// MaxQueue bounds the number of jobs waiting for admission (default 64).
	// Submissions beyond it are rejected, not dropped silently.
	MaxQueue int
	// PoolCap caps every job's BufferPool free list (cluster.Config.PoolCap),
	// bounding per-tenant buffer retention. 0 keeps each job's own default.
	PoolCap int
	// LeaseTimeout bounds how long a job's master waits for its leased
	// workers to dial the data plane, and the engine's per-iteration reply
	// timeout (default 30s).
	LeaseTimeout time.Duration
	// DrainGrace bounds the post-run wait for each worker's clean close
	// before the job's data-plane sockets are torn down (default 2s).
	DrainGrace time.Duration
	// Logf, when non-nil, receives one line per lifecycle event (job
	// admitted, finished, worker joined/left).
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 30 * time.Second
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 2 * time.Second
	}
}

// fleetWorker is one registered worker connection. Assign frames are written
// only while the worker is leased to exactly one job (it is out of the idle
// pool), so there is never more than one writer.
type fleetWorker struct {
	id   int
	name string
	conn net.Conn
	w    *wire.Writer
	// Mutable fleet state, guarded by Daemon.mu.
	job    core.JobID // 0 when idle
	leases int        // completed leases
	gone   bool
}

// Daemon is a running service instance. Start one with Start; stop it with
// Drain (graceful) or Close (immediate).
type Daemon struct {
	opts Options

	ln         net.Listener
	httpLn     net.Listener
	httpSrv    *http.Server
	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	// Fleet-level measured wire traffic: every byte crossing any job's
	// data-plane sockets, handshake and shutdown frames included.
	fleetIn  atomic.Int64
	fleetOut atomic.Int64

	mu         sync.Mutex
	jobs       map[core.JobID]*jobRecord
	order      []core.JobID
	queue      []*jobRecord
	workers    map[int]*fleetWorker
	idle       []*fleetWorker
	conns      map[net.Conn]struct{}
	jobLns     map[net.Listener]struct{}
	nextJob    uint64
	nextWorker int
	draining   bool
	closed     bool
}

// Start launches a daemon: it binds the control listener (and the HTTP
// listener if configured) and begins accepting fleet workers and clients.
func Start(opts Options) (*Daemon, error) {
	opts.defaults()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen %s: %w", opts.Addr, err)
	}
	d := &Daemon{
		opts:    opts,
		ln:      ln,
		jobs:    make(map[core.JobID]*jobRecord),
		workers: make(map[int]*fleetWorker),
		conns:   make(map[net.Conn]struct{}),
		jobLns:  make(map[net.Listener]struct{}),
	}
	d.rootCtx, d.rootCancel = context.WithCancel(context.Background())
	if opts.HTTPAddr != "" {
		hln, err := net.Listen("tcp", opts.HTTPAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("service: http listen %s: %w", opts.HTTPAddr, err)
		}
		d.httpLn = hln
		d.httpSrv = &http.Server{Handler: d.httpHandler()}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = d.httpSrv.Serve(hln)
		}()
	}
	d.wg.Add(1)
	go d.acceptLoop()
	d.logf("service: listening on %s", ln.Addr())
	return d, nil
}

// Addr returns the control listener's address — what workers join and
// clients dial.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// HTTPAddr returns the HTTP surface's address, or "" if none is configured.
func (d *Daemon) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

func (d *Daemon) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go d.serveConn(conn)
	}
}

// serveConn dispatches a fresh connection on its first frame: a Join makes
// it a fleet worker for the rest of its life, anything else a client
// session.
func (d *Daemon) serveConn(conn net.Conn) {
	defer d.wg.Done()
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
		conn.Close()
	}()
	r := wire.NewReader(conn)
	k, err := r.NextKind()
	if err != nil {
		return
	}
	if k == wire.KindJoin {
		j, err := r.ReadJoin()
		if err != nil {
			return
		}
		d.serveFleetWorker(conn, r, j)
		return
	}
	d.serveClient(conn, r, k)
}

// serveFleetWorker registers the worker in the lease pool and then loops on
// its Idle frames — each one ends a lease and returns the worker to the
// pool. Any read error (or unexpected frame) retires the worker.
func (d *Daemon) serveFleetWorker(conn net.Conn, r *wire.Reader, j wire.Join) {
	fw := &fleetWorker{name: j.Name, conn: conn, w: wire.NewWriter(conn)}
	d.mu.Lock()
	if d.closed || d.draining {
		d.mu.Unlock()
		return
	}
	d.nextWorker++
	fw.id = d.nextWorker
	if fw.name == "" {
		fw.name = fmt.Sprintf("worker-%d", fw.id)
	}
	d.workers[fw.id] = fw
	d.idle = append(d.idle, fw)
	d.scheduleLocked()
	d.mu.Unlock()
	d.logf("service: worker %d (%s) joined", fw.id, fw.name)
	for {
		k, err := r.NextKind()
		if err != nil {
			d.dropWorker(fw, err)
			return
		}
		if k != wire.KindIdle {
			d.dropWorker(fw, fmt.Errorf("unexpected frame kind %d from worker", k))
			return
		}
		idle, err := r.ReadIdle()
		if err != nil {
			d.dropWorker(fw, err)
			return
		}
		if idle.Err != "" {
			d.logf("service: worker %d lease for job %d ended: %s", fw.id, idle.Job, idle.Err)
		}
		d.mu.Lock()
		fw.job = 0
		fw.leases++
		if !fw.gone && !d.closed {
			d.idle = append(d.idle, fw)
			d.scheduleLocked()
		}
		d.mu.Unlock()
	}
}

// serveClient runs a client session: a lockstep loop of Submit/Status/
// Cancel requests, each answered with a State frame carrying the job's
// status snapshot as JSON (and the error text, if the request failed). The
// session ends when the client disconnects or sends an unknown frame.
func (d *Daemon) serveClient(conn net.Conn, r *wire.Reader, first byte) {
	w := wire.NewWriter(conn)
	k := first
	for {
		var st JobStatus
		var err error
		switch k {
		case wire.KindSubmit:
			var s wire.Submit
			if s, err = r.ReadSubmit(); err != nil {
				return
			}
			st, err = d.SubmitEncoded(s.Spec)
		case wire.KindStatus:
			var id uint64
			if id, err = r.ReadJobID(); err != nil {
				return
			}
			st, err = d.Status(core.JobID(id))
		case wire.KindCancel:
			var id uint64
			if id, err = r.ReadJobID(); err != nil {
				return
			}
			st, err = d.Cancel(core.JobID(id))
		default:
			return
		}
		reply := wire.State{Job: uint64(st.ID)}
		if err != nil {
			reply.Err = err.Error()
		} else if reply.Status, err = json.Marshal(st); err != nil {
			reply.Err = err.Error()
			reply.Status = nil
		}
		if werr := w.WriteState(reply); werr != nil {
			return
		}
		if k, err = r.NextKind(); err != nil {
			return
		}
	}
}

// dropWorker retires a worker whose control connection failed. A job holding
// its lease is not interrupted here: the job's data-plane connection to the
// same process fails (or times out) on its own, and the engine degrades or
// errors through its normal paths.
func (d *Daemon) dropWorker(fw *fleetWorker, err error) {
	d.mu.Lock()
	if fw.gone {
		d.mu.Unlock()
		return
	}
	fw.gone = true
	delete(d.workers, fw.id)
	for i, w := range d.idle {
		if w == fw {
			d.idle = append(d.idle[:i], d.idle[i+1:]...)
			break
		}
	}
	closed := d.closed
	d.mu.Unlock()
	fw.conn.Close()
	if !closed {
		d.logf("service: worker %d (%s) left: %v", fw.id, fw.name, err)
	}
}

// scheduleLocked admits queued jobs in strict FIFO order while the head's
// worker demand is satisfiable from the idle pool. The head blocks the
// queue: a later job never overtakes an earlier one, so admission latency
// is predictable and starvation-free. Callers hold d.mu.
func (d *Daemon) scheduleLocked() {
	if d.closed || d.draining {
		return
	}
	for len(d.queue) > 0 {
		rec := d.queue[0]
		if rec.state != core.JobQueued { // canceled while queued
			d.queue = d.queue[1:]
			continue
		}
		if rec.need > len(d.idle) {
			return
		}
		leased := make([]*fleetWorker, rec.need)
		copy(leased, d.idle[:rec.need])
		d.idle = append([]*fleetWorker(nil), d.idle[rec.need:]...)
		d.queue = d.queue[1:]
		rec.state = core.JobRunning
		rec.started = time.Now()
		for _, fw := range leased {
			fw.job = rec.id
		}
		rec.leased = leased
		ctx, cancel := context.WithCancel(d.rootCtx)
		rec.cancel = cancel
		d.wg.Add(1)
		go d.runJob(ctx, rec, leased)
	}
}

// runJob drives one admitted job to a terminal state on its own engine.
func (d *Daemon) runJob(ctx context.Context, rec *jobRecord, leased []*fleetWorker) {
	defer d.wg.Done()
	defer rec.cancel()
	d.logf("service: job %d admitted (%s/%s, %d workers leased)",
		rec.id, rec.spec.Scheme, rec.spec.Runtime, len(leased))
	job, err := core.NewJob(rec.spec)
	if err != nil {
		d.releaseLeases(leased) // never assigned; return them directly
		d.finishJob(rec, nil, err)
		return
	}
	cfg := job.EngineConfig()
	if d.opts.PoolCap > 0 {
		cfg.PoolCap = d.opts.PoolCap
	}
	cfg.Observer = d.observe(rec)
	var res *cluster.Result
	switch rec.spec.Runtime {
	case core.RuntimeTCP:
		res, err = d.runLeased(ctx, rec, job, cfg, leased)
	case core.RuntimeLive:
		res, err = cluster.RunLiveContext(ctx, cfg, cluster.LiveOptions{TimeScale: rec.spec.TimeScale})
	default:
		res, err = cluster.RunSimContext(ctx, cfg)
	}
	d.finishJob(rec, res, err)
}

// countingListener wraps a job's data-plane listener so every accepted
// connection counts its traffic into the daemon's fleet totals (on top of
// the per-fabric counters the accept path adds). It forwards SetDeadline so
// the fabric's accept timeout still applies.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return cluster.CountConn(c, l.in, l.out), nil
}

func (l *countingListener) SetDeadline(t time.Time) error {
	return l.Listener.(*net.TCPListener).SetDeadline(t)
}

// runLeased executes a TCP job over its leased fleet workers: a private
// data-plane listener, one Assign per worker, then the standard engine over
// the accepted fabric. Leases are not released here — each worker reports
// Idle on its control connection once its lease ends, and the engine's
// shutdown broadcast (sent on every exit path) guarantees that happens.
func (d *Daemon) runLeased(ctx context.Context, rec *jobRecord, job *core.Job, cfg *cluster.Config, leased []*fleetWorker) (*cluster.Result, error) {
	host, _, err := net.SplitHostPort(d.ln.Addr().String())
	if err != nil {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		d.releaseLeases(leased)
		return nil, fmt.Errorf("service: job %d data-plane listen: %w", rec.id, err)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		ln.Close()
		d.releaseLeases(leased)
		return nil, fmt.Errorf("service: daemon closed")
	}
	d.jobLns[ln] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.jobLns, ln)
		d.mu.Unlock()
	}()
	port := ln.Addr().(*net.TCPAddr).Port
	for i, fw := range leased {
		a := wire.Assign{Job: uint64(rec.id), Index: i, Port: port, Spec: rec.specBytes}
		if werr := fw.w.WriteAssign(a); werr != nil {
			d.dropWorker(fw, werr)
			// Workers after fw were never assigned: return them directly.
			// The ones before fw did get assignments; closing the listener
			// fails their dials and they come back through Idle frames.
			d.releaseLeases(leased[i+1:])
			ln.Close()
			return nil, fmt.Errorf("service: job %d assign worker %d: %w", rec.id, fw.id, werr)
		}
	}
	cln := &countingListener{Listener: ln, in: &d.fleetIn, out: &d.fleetOut}
	fab, err := cluster.ServeMasterPool(cln, rec.spec.Workers, d.opts.LeaseTimeout, "", cfg.Buffers(), job.Comm(), cfg.Model.Dim())
	if err != nil {
		// acceptWorkers closed the listener; assigned workers fail their
		// dial or handshake and release themselves via Idle frames.
		return nil, fmt.Errorf("service: job %d accepting leased workers: %w", rec.id, err)
	}
	defer fab.Close()
	res, rerr := cluster.RunWithFabricContext(ctx, cfg, fab, cluster.LiveOptions{
		TimeScale: rec.spec.TimeScale,
		Timeout:   d.opts.LeaseTimeout,
		TCP:       true,
		Drain:     true,
	})
	// Wait for each worker's clean close so tearing down the data plane
	// cannot reset a connection with a reply in flight.
	cluster.DrainFabric(fab, d.opts.DrainGrace)
	return res, rerr
}

// releaseLeases returns workers that never received an assignment straight
// to the idle pool (workers that were assigned release themselves with an
// Idle frame when their lease ends).
func (d *Daemon) releaseLeases(leased []*fleetWorker) {
	if len(leased) == 0 {
		return
	}
	d.mu.Lock()
	for _, fw := range leased {
		if fw.gone {
			continue
		}
		fw.job = 0
		d.idle = append(d.idle, fw)
	}
	d.scheduleLocked()
	d.mu.Unlock()
}

// finishJob maps the engine's exit into the job lifecycle and wakes the
// scheduler: done on success, canceled on context cancellation, degraded
// when the gradient became unrecoverable (ErrBelowThreshold wraps
// ErrStalled), failed otherwise. Partial results are kept on every path.
func (d *Daemon) finishJob(rec *jobRecord, res *cluster.Result, err error) {
	d.mu.Lock()
	rec.result = res
	rec.finished = time.Now()
	switch {
	case err == nil:
		rec.state = core.JobDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rec.state = core.JobCanceled
		rec.errText = err.Error()
	case errors.Is(err, cluster.ErrStalled):
		rec.state = core.JobDegraded
		rec.errText = err.Error()
	default:
		rec.state = core.JobFailed
		rec.errText = err.Error()
	}
	if res != nil {
		rec.iter = len(res.Iters)
	}
	state := rec.state
	close(rec.done)
	d.scheduleLocked()
	d.mu.Unlock()
	d.logf("service: job %d %s after %d iterations", rec.id, state, rec.iter)
}

// Submit validates and enqueues a job built from a local Spec. The spec
// travels through the same encode/decode path as a wire submission, so the
// same process-local-state rejections apply.
func (d *Daemon) Submit(spec core.Spec) (JobStatus, error) {
	data, err := core.EncodeSpec(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return d.SubmitEncoded(data)
}

// SubmitEncoded enqueues a job from EncodeSpec bytes (the wire submission
// path). The spec is re-encoded after normalization so every leased worker
// receives the identical fully-resolved spec.
func (d *Daemon) SubmitEncoded(data []byte) (JobStatus, error) {
	spec, err := core.DecodeSpec(data)
	if err != nil {
		return JobStatus{}, err
	}
	norm, err := core.EncodeSpec(spec)
	if err != nil {
		return JobStatus{}, err
	}
	need := 0
	if spec.Runtime == core.RuntimeTCP {
		need = spec.Workers
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.draining {
		return JobStatus{}, fmt.Errorf("service: daemon is draining, not accepting jobs")
	}
	if len(d.queue) >= d.opts.MaxQueue {
		return JobStatus{}, fmt.Errorf("service: queue full (%d jobs waiting)", len(d.queue))
	}
	d.nextJob++
	rec := &jobRecord{
		id:        core.JobID(d.nextJob),
		spec:      spec,
		specBytes: norm,
		need:      need,
		state:     core.JobQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		loss:      math.NaN(),
	}
	d.jobs[rec.id] = rec
	d.order = append(d.order, rec.id)
	d.queue = append(d.queue, rec)
	d.scheduleLocked()
	return d.statusLocked(rec), nil
}

// Status reports a job's current lifecycle snapshot.
func (d *Daemon) Status(id core.JobID) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no such job %d", id)
	}
	return d.statusLocked(rec), nil
}

// Cancel stops a job: a queued job turns canceled immediately (and the jobs
// behind it move up); a running job's engine is interrupted and keeps the
// partial result of its completed iterations. Canceling a terminal job is a
// no-op returning its status.
func (d *Daemon) Cancel(id core.JobID) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no such job %d", id)
	}
	switch rec.state {
	case core.JobQueued:
		rec.state = core.JobCanceled
		rec.errText = "canceled while queued"
		rec.finished = time.Now()
		close(rec.done)
		d.scheduleLocked()
	case core.JobRunning:
		rec.cancel()
	}
	return d.statusLocked(rec), nil
}

// Wait blocks until the job reaches a terminal state (or ctx expires) and
// returns its final status.
func (d *Daemon) Wait(ctx context.Context, id core.JobID) (JobStatus, error) {
	d.mu.Lock()
	rec, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no such job %d", id)
	}
	select {
	case <-rec.done:
	case <-ctx.Done():
		return d.Status(id)
	}
	return d.Status(id)
}

// Result returns a terminal job's engine result (nil for jobs that failed
// before producing one). The caller must treat it as read-only: concurrent
// status snapshots read the same object.
func (d *Daemon) Result(id core.JobID) (*cluster.Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: no such job %d", id)
	}
	if !rec.state.Terminal() {
		return nil, fmt.Errorf("service: job %d is %s, not terminal", id, rec.state)
	}
	return rec.result, nil
}

// Jobs lists every known job in submission order.
func (d *Daemon) Jobs() []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.statusLocked(d.jobs[id]))
	}
	return out
}

// Workers lists the registered fleet in join order.
func (d *Daemon) Workers() []WorkerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]WorkerStatus, 0, len(d.workers))
	for id := 1; id <= d.nextWorker; id++ {
		fw, ok := d.workers[id]
		if !ok {
			continue
		}
		ws := WorkerStatus{ID: fw.id, Name: fw.name, Job: fw.job, Leases: fw.leases, State: "idle"}
		if fw.job != 0 {
			ws.State = "busy"
		}
		out = append(out, ws)
	}
	return out
}

// Drain stops the daemon gracefully: new submissions are rejected, queued
// jobs are canceled, and running jobs are given until ctx expires to finish
// before being canceled themselves. It then closes the daemon and waits for
// every goroutine.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	for _, rec := range d.queue {
		if rec.state == core.JobQueued {
			rec.state = core.JobCanceled
			rec.errText = "daemon draining"
			rec.finished = time.Now()
			close(rec.done)
		}
	}
	d.queue = nil
	var running []*jobRecord
	for _, rec := range d.jobs {
		if rec.state == core.JobRunning {
			running = append(running, rec)
		}
	}
	d.mu.Unlock()
	d.logf("service: draining (%d running jobs)", len(running))
	finished := make(chan struct{})
	go func() {
		for _, rec := range running {
			<-rec.done
		}
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		d.mu.Lock()
		for _, rec := range running {
			if rec.cancel != nil {
				rec.cancel()
			}
		}
		d.mu.Unlock()
		<-finished
	}
	return d.Close()
}

// Close stops the daemon immediately: running jobs are canceled (keeping
// partial results), every connection and listener is closed, and Close
// blocks until all daemon goroutines exit. Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.rootCancel()
	for c := range d.conns {
		c.Close()
	}
	for ln := range d.jobLns {
		ln.Close()
	}
	httpSrv := d.httpSrv
	d.mu.Unlock()
	d.ln.Close()
	if httpSrv != nil {
		httpSrv.Close()
	}
	d.wg.Wait()
	return nil
}
