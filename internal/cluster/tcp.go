package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bcc/internal/wire"
)

// The fabric runs the master/worker wire protocol over net.Conn
// connections: loopback TCP sockets for RunLive(..., TCP: true) and the
// service daemon's leased jobs, whose workers are separate processes
// (bccserve -join), and in-process net.Pipe connections for the default
// live runtime. Both are the same code from the first byte: frames use the
// compact binary encoding of internal/wire, the only frame encoding; each
// connection opens with a wire.Hello carrying the worker's index and
// resolved comm-plane parameters (payload codec, top-K, chunk), which the
// master verifies against its own before admitting it — a mismatch would
// silently corrupt every payload. Every reply is one frame on its worker's
// own connection, read by that connection's reader goroutine.
//
// The master's side of a connection is read-only apart from broadcasts, and
// a broadcast is the same bytes for every worker: the fabric encodes each
// model update once into a frame it owns and writes that slice to every
// connection, so per-connection write state does not exist.

type connFabric struct {
	ln    net.Listener
	conns []net.Conn
	// frame is the current broadcast, encoded by fw; reused every iteration.
	frame   wire.Frame
	fw      *wire.Writer
	replies chan Reply
	// pool backs the readers' reply payloads and Msgs slices (nil = fresh
	// allocations).
	pool *BufferPool
	// quit is closed by Close, releasing readers parked on a full replies
	// channel when a cancelled run tears down without a drain.
	quit   chan struct{}
	mu     sync.Mutex
	closed bool
	// readers tracks the per-connection reader goroutines so DrainFabric can
	// wait for every worker's clean close before the master tears the
	// connections down.
	readers sync.WaitGroup
	// Measured wire traffic of the master's connections, counted at the
	// connection layer (every byte crossing them, framing included).
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// WireTotals implements wireCounter: cumulative bytes received/sent across
// all worker connections since the fabric accepted them.
func (f *connFabric) WireTotals() (in, out int64) {
	return f.bytesIn.Load(), f.bytesOut.Load()
}

// countingConn counts every byte crossing a master-side connection into the
// fabric's totals. Wrapping the conn (rather than instrumenting the codec)
// means the count is the genuine wire traffic: frame headers, handshakes and
// payloads alike.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

// CountConn wraps conn so every byte read and written is added to in and
// out. The service daemon wraps each job's accepted data-plane connections
// a second time with its fleet-level counters, so per-job fabric totals and
// fleet totals are both measured at the connection layer.
func CountConn(conn net.Conn, in, out *atomic.Int64) net.Conn {
	return countingConn{Conn: conn, in: in, out: out}
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// newFabric connects the run's n in-process workers to the master: over a
// loopback TCP listener when opts.TCP is set, over a pipeListener
// otherwise. Every worker dials, handshakes and serves the wire protocol
// (serveWorkerConn), and acceptWorkers builds the master's side, so the two
// runtimes differ only in what carries the bytes. Crashed workers connect
// too: they handshake and idle for the iterations the fault plan keeps them
// down.
func newFabric(cfg *Config, opts LiveOptions) (fabric, error) {
	_, n, _ := cfg.Plan.Params()
	var ln net.Listener
	var dial func() (net.Conn, error)
	if opts.TCP {
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: tcp listen: %w", err)
		}
		addr := tl.Addr().String()
		ln, dial = tl, func() (net.Conn, error) { return net.Dial("tcp", addr) }
	} else {
		pl := newPipeListener()
		ln, dial = pl, pl.dial
	}
	// The workers draw payloads and queries from the run's pool: a worker
	// puts each buffer back once it is on the wire (or computed on), so one
	// pool serves both ends of every connection.
	for w := 0; w < n; w++ {
		env := WorkerEnv{
			Index:     w,
			Plan:      cfg.Plan,
			Model:     cfg.Model,
			Units:     cfg.Units,
			Latency:   cfg.latency(),
			TimeScale: opts.TimeScale,
			Comm:      cfg.Comm,
			Faults:    cfg.Faults,
			Bufs:      cfg.buffers(),
		}
		go func() {
			if conn, err := dial(); err == nil {
				_ = serveWorkerConn(conn, env)
			}
		}()
	}

	fab, err := acceptWorkers(ln, n, opts.Timeout, cfg.buffers(), cfg.Comm, cfg.Model.Dim())
	if err != nil {
		ln.Close()
		return nil, err
	}
	return fab, nil
}

// pipeListener is the live runtime's in-process listener: dial hands
// Accept the master's end of a fresh net.Pipe and returns the worker's.
// The send is unbuffered, so no connection is left unaccepted once the
// listener closes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() (net.Conn, error) {
	worker, master := net.Pipe()
	select {
	case l.conns <- master:
		return worker, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// acceptWorkers accepts exactly n handshaking connections on ln and
// assembles the fabric around them. timeout bounds each accept and each
// hello read. pool, if non-nil, backs the codecs' reply deserialization so
// gradient payloads land in recycled buffers. comm and dim resolve the
// master's comm plane; each worker's hello must declare the same payload
// codec, top-K and chunk size, and a distinct index in [0, n), or the
// handshake fails.
func acceptWorkers(ln net.Listener, n int, timeout time.Duration, pool *BufferPool, comm CommOptions, dim int) (*connFabric, error) {
	cp, err := comm.resolve(dim)
	if err != nil {
		return nil, err
	}
	f := &connFabric{ln: ln, replies: make(chan Reply, n*4+4), pool: pool, quit: make(chan struct{})}
	f.conns = make([]net.Conn, 0, n)
	f.fw = wire.NewFrameWriter(&f.frame)
	f.fw.SetPayload(cp.pc)
	taken := make([]bool, n)
	for i := 0; i < n; i++ {
		// Deadline-bound the accept when the listener supports it (TCP
		// listeners do; wrappers forward it), so a worker that never dials
		// cannot wedge the master.
		if tl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok && timeout > 0 {
			if err := tl.SetDeadline(time.Now().Add(timeout)); err != nil {
				f.Close()
				return nil, err
			}
		}
		raw, err := ln.Accept()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: tcp accept %d/%d: %w", i, n, err)
		}
		conn := countingConn{Conn: raw, in: &f.bytesIn, out: &f.bytesOut}
		codec := newWireCodec(conn, pool, cp)
		hello, err := codec.ReadHello(timeout)
		if err != nil {
			conn.Close()
			f.Close()
			return nil, fmt.Errorf("cluster: tcp handshake: %w", err)
		}
		switch err = cp.checkHello(hello); {
		case err != nil:
		case hello.Worker < 0 || hello.Worker >= n:
			err = fmt.Errorf("index outside [0, %d)", n)
		case taken[hello.Worker]:
			err = fmt.Errorf("index already taken")
		}
		if err != nil {
			conn.Close()
			f.Close()
			return nil, fmt.Errorf("cluster: tcp handshake worker %d: %w", hello.Worker, err)
		}
		taken[hello.Worker] = true
		f.conns = append(f.conns, conn)
		// Reader: stream this worker's replies into the shared channel.
		f.readers.Add(1)
		go func(codec *wireCodec, worker int) {
			defer f.readers.Done()
			for {
				rep := Reply{Msgs: pool.getMsgs()}
				if err := codec.ReadReply(&rep); err != nil || !honestReply(rep, worker, dim) {
					// The connection is done: hand the unused Msgs slice back,
					// so repeated runs on one pool keep what they grew.
					discardReply(pool, rep)
					return
				}
				select {
				case f.replies <- rep:
				case <-f.quit:
					return
				}
			}
		}(codec, hello.Worker)
	}
	return f, nil
}

// honestReply reports whether a reply read on worker's connection speaks
// for that worker alone and carries gradient-sized payloads: a dim-long Vec
// and the one unit of load every scheme's message carries. A reply that
// fails is treated like a read error, so no decoder sees a sender outside
// the plan or sums a short vector, and no declared load inflates
// IterStats.Units or the master's ingress sleep.
func honestReply(rep Reply, worker, dim int) bool {
	if rep.Worker != worker {
		return false
	}
	for _, msg := range rep.Msgs {
		if msg.From != worker || msg.Units != 1 || msg.Vec == nil || len(msg.Vec) != dim {
			return false
		}
	}
	return true
}

func (f *connFabric) Broadcast(mu ModelUpdate) error {
	f.frame = f.frame[:0]
	if err := f.fw.WriteModel(mu); err != nil {
		return fmt.Errorf("cluster: tcp broadcast encode: %w", err)
	}
	for i, conn := range f.conns {
		if _, err := conn.Write(f.frame); err != nil {
			return fmt.Errorf("cluster: tcp broadcast to conn %d: %w", i, err)
		}
	}
	return nil
}

func (f *connFabric) Replies() <-chan Reply { return f.replies }

// drainReaders waits (up to timeout) for every connection reader to observe
// its worker's clean close — a worker closes its side after receiving the
// shutdown broadcast — while discarding any stale replies still in flight
// so a full replies channel cannot wedge a reader. It reports whether all
// readers finished in time.
func (f *connFabric) drainReaders(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		f.readers.Wait()
		close(done)
	}()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case <-done:
			return true
		case rep := <-f.replies:
			// In-flight straggler replies from the final iteration: nobody
			// will decode them, drop them so their reader can exit.
			discardReply(f.pool, rep)
		case <-deadline.C:
			return false
		}
	}
}

// drainer is the optional fabric capability behind DrainFabric: waiting for
// the workers' clean close before the master tears its connections down.
type drainer interface {
	drainReaders(timeout time.Duration) bool
}

// DrainFabric performs the graceful half of fabric teardown, between the
// engine returning and Close: it (re-)broadcasts the shutdown update (best
// effort — the engine already sent one on a normal exit, but an interrupted
// caller may not have) and then waits, bounded by timeout, for every worker
// to close its side of the connection. Without the drain, Close can tear a
// socket down while the worker's last reply is still in flight, turning a
// clean shutdown into a connection reset on the worker. A fabric without
// connection readers drains trivially. It reports whether the fabric
// drained within the timeout.
func DrainFabric(fab Fabric, timeout time.Duration) bool {
	_ = fab.Broadcast(ModelUpdate{Iter: -1})
	if d, ok := fab.(drainer); ok {
		return d.drainReaders(timeout)
	}
	return true
}

func (f *connFabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	close(f.quit)
	for _, c := range f.conns {
		_ = c.Close()
	}
	return f.ln.Close()
}

// DialAndServeWorker connects to a master at addr, performs the handshake
// and serves the worker protocol until the connection closes or the master
// sends a shutdown update. It is the out-of-process worker command's entry
// point.
func DialAndServeWorker(addr string, env WorkerEnv) error {
	if err := checkFrameCodec(env.Codec); err != nil {
		return err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: worker %d dial: %w", env.Index, err)
	}
	return serveWorkerConn(conn, env)
}

// serveWorkerConn is the worker's side of one connection, socket or pipe:
// hello, then runWorker fed by a model reader, until the connection closes
// or the master broadcasts a shutdown. It closes conn on return.
func serveWorkerConn(conn net.Conn, env WorkerEnv) error {
	defer conn.Close()
	dim := 0
	if env.Model != nil {
		dim = env.Model.Dim()
	}
	cp, err := env.Comm.resolve(dim)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: %w", env.Index, err)
	}
	if env.Bufs == nil && env.Model != nil {
		// A worker's payloads are fully serialized by the time WriteReply
		// returns, so a small private pool recycled in the send path makes
		// the worker's steady-state encode allocation-free too.
		env.Bufs = NewBufferPool(env.Model.Dim(), 64)
	}
	// The worker's reads are model broadcasts: each query lands in a buffer
	// from the pool, which runWorker puts back once it has computed on it.
	codec := newWireCodec(conn, env.Bufs, cp)
	if err := codec.WriteHello(cp.hello(env.Index)); err != nil {
		return fmt.Errorf("cluster: worker %d hello: %w", env.Index, err)
	}
	// A dedicated reader streams model updates into a channel so the worker
	// loop can observe fresh broadcasts mid-sleep and abandon stale work.
	// The codec's read and write halves are independent, so the reader
	// goroutine and the reply writes below do not race. At most one update
	// waits in the channel: a newer one replaces it — runWorker would skip
	// it anyway — and its query buffer goes straight back to the pool, so a
	// connection holds no query beyond the one in use, the one queued and
	// the one being read. The reader keeps reading until the connection
	// closes, a shutdown included, so a master's broadcast never waits on
	// this worker, even over an unbuffered pipe.
	updates := make(chan ModelUpdate, 1)
	go func() {
		defer close(updates)
		for {
			mu, err := codec.ReadModel()
			if err != nil {
				return
			}
			select {
			case stale := <-updates:
				env.Bufs.Put(stale.Query)
			default:
			}
			// Only this goroutine sends, so the channel has room: the send
			// never blocks, even after runWorker has returned.
			updates <- mu
		}
	}()
	send := func(r Reply) error {
		err := codec.WriteReply(r)
		// The frame is on the wire (or the connection is broken); either way
		// the payload buffers can go back to the worker's pool.
		recycleMsgs(env.Bufs, r.Msgs)
		return err
	}
	return runWorker(env, updates, send, env.Bufs.Put)
}

// ServeMasterPool accepts the n worker connections of an n-worker run on ln
// — crashed workers included, which handshake and idle — and returns a
// fabric for RunWithFabricContext; the service daemon uses it for each job's
// leased fleet workers, which are separate processes. comm (with the model
// dimension dim) must match the CommOptions given to every worker — each
// handshake is verified against it. timeout bounds each accept and each
// hello read. The caller owns ln's lifetime via the returned fabric's Close.
// pool, if non-nil, backs reply payloads with pooled buffers that the engine
// recycles after each decode, so a long-running host keeps the
// allocation-free steady state of the in-process runtimes (pass
// Config.Buffers() of the run the fabric will drive); with nil, payloads are
// allocated per frame.
//
// Deprecated: the codecName parameter only survives for existing callers
// and goes once none passes it; it must be "" or "wire", the only frame
// encoding.
func ServeMasterPool(ln net.Listener, n int, timeout time.Duration, codecName string, pool *BufferPool, comm CommOptions, dim int) (Fabric, error) {
	if err := checkFrameCodec(codecName); err != nil {
		ln.Close() // as a failed accept would: dialing workers must not hang
		return nil, err
	}
	return acceptWorkers(ln, n, timeout, pool, comm, dim)
}

// Fabric is the exported face of the master-side substrate, for callers
// (the service daemon) that manage their own listeners and then hand control
// to RunWithFabricContext.
type Fabric = fabric

// RunWithFabricContext drives the master engine over an already-connected
// fabric, bounded by a context: cancellation interrupts the master even
// while it blocks for replies and returns the completed iterations' partial
// Result alongside ctx.Err(). The caller retains ownership of the fabric and
// must Close it to release worker connections.
func RunWithFabricContext(ctx context.Context, cfg *Config, fab Fabric, opts LiveOptions) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runEngine(ctx, cfg, newLiveTransport(cfg, fab, opts))
}
