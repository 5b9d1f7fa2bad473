package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bcc/internal/coding"
	"bcc/internal/wire"
)

// The scatter data plane of the sharded master (see sharded.go for the
// compute side): instead of funnelling every reply through one master
// socket, each worker holds one connection per master shard and writes each
// reply's coordinate slices — cut at the shard map's chunk-aligned
// boundaries — directly to the owning shard's listener. The master's
// per-shard readers ingest and count their slices concurrently and assemble
// each worker's slices back into one full-width reply for the coordinator,
// so the engine's control plane (arrival order, counting, fault handling)
// is exactly the single-socket protocol while the bytes of the p-dimensional
// payloads enter through M parallel sockets with per-shard measured byte
// accounting.
//
// Slice frames are ordinary wire reply frames carrying the worker's
// metadata plus each message's [lo, hi) slice. The worker applies the lossy
// payload transform once in-process — the same wire boundary the channel
// fabric uses — and the slice frames themselves travel raw64: a slice of a
// transformed vector is not the transform of the slice, so re-encoding per
// shard would corrupt values (topk) or double-quantize byte counts; shipping
// the transformed
// values dense keeps every decoded coordinate bit-identical to the
// single-socket runtimes at the cost of not realizing topk's wire-byte
// savings on the scatter plane (measured bytes are observations, never
// conformance inputs).
//
// The shard map (count + chunk-aligned bounds) is deterministic from the
// run's spec, so it is never shipped whole: workers and master derive it
// independently via shardBounds, and the handshake verifies the shard COUNT
// (wire.Hello.Shards) like the codec parameters — a disagreement would land
// coordinates on the wrong shard.

// scatterSlot is one worker's reassembly state: slices arrive on M
// independent connections in no particular relative order, keyed by
// iteration until all M frames of an iteration are in.
type scatterSlot struct {
	mu      sync.Mutex
	pending map[int]*scatterPending
}

type scatterPending struct {
	compute float64
	msgs    []coding.Message
	got     int
}

// scatterFabric is the sharded master's TCP fabric: the embedded tcpFabric
// owns the primary connections (handshake, model broadcasts, wire totals,
// reader accounting) and the scatter side adds M shard listeners whose
// connections carry the reply slices.
type scatterFabric struct {
	*tcpFabric
	shardLns   []net.Listener
	shardConns []net.Conn
	shardIn    []atomic.Int64
	shardOut   []atomic.Int64
	bounds     []int
	dim        int
	pool       *BufferPool
	slots      []scatterSlot
	out        chan Reply
}

// ShardAddrs returns the shard listeners' addresses in shard order, for
// handing to workers (WorkerEnv.ShardAddrs, Assign.ShardPorts).
func (f *scatterFabric) ShardAddrs() []string {
	addrs := make([]string, len(f.shardLns))
	for s, ln := range f.shardLns {
		addrs[s] = ln.Addr().String()
	}
	return addrs
}

// ShardWireIn implements the shardWireCounter capability: measured ingress
// bytes per shard listener, counted at the connection layer.
func (f *scatterFabric) ShardWireIn() []int64 {
	in := make([]int64, len(f.shardIn))
	for s := range f.shardIn {
		in[s] = f.shardIn[s].Load()
	}
	return in
}

func (f *scatterFabric) Replies() <-chan Reply { return f.out }

// drainReaders extends the tcpFabric drain to the scatter side: assembled
// replies parked in the out channel are discarded (recycled to the pool)
// so no shard reader can wedge on a full channel while the master waits for
// the workers' clean close.
func (f *scatterFabric) drainReaders(timeout time.Duration) bool {
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
			discardReply(f.pool, rep)
		case rep := <-f.out:
			discardReply(f.pool, rep)
		case <-deadline.C:
			return false
		}
	}
}

func (f *scatterFabric) Close() error {
	for _, c := range f.shardConns {
		_ = c.Close()
	}
	for _, ln := range f.shardLns {
		_ = ln.Close()
	}
	return f.tcpFabric.Close()
}

// buf returns a full-width assembly buffer.
func (f *scatterFabric) buf() []float64 {
	if f.pool != nil {
		return f.pool.Get()
	}
	return make([]float64, f.dim)
}

// ingest merges one shard's slice frame into the worker's pending assembly
// and returns the fully assembled reply once the last shard's slices are in
// (ok=false until then). Metadata (compute time, message tags and units) is
// identical on every shard's frame; the first to arrive fixes it.
func (f *scatterFabric) ingest(shard int, rep Reply) (Reply, bool, error) {
	if rep.Worker < 0 || rep.Worker >= len(f.slots) {
		return Reply{}, false, fmt.Errorf("cluster: scatter frame from unknown worker %d", rep.Worker)
	}
	slot := &f.slots[rep.Worker]
	lo := f.bounds[shard]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.pending == nil {
		slot.pending = make(map[int]*scatterPending)
	}
	p := slot.pending[rep.Iter]
	if p == nil {
		// The assembled Msgs reach the engine, which recycles them.
		p = &scatterPending{compute: rep.Compute, msgs: f.pool.getMsgs()}
		for _, m := range rep.Msgs {
			p.msgs = append(p.msgs, coding.Message{From: m.From, Tag: m.Tag, Units: m.Units})
		}
		slot.pending[rep.Iter] = p
	}
	if len(rep.Msgs) != len(p.msgs) {
		return Reply{}, false, fmt.Errorf("cluster: scatter shard %d sent %d messages for worker %d iter %d, shard map says %d",
			shard, len(rep.Msgs), rep.Worker, rep.Iter, len(p.msgs))
	}
	for i, m := range rep.Msgs {
		dst := &p.msgs[i]
		if len(m.Vec) > 0 {
			if dst.Vec == nil {
				dst.Vec = f.buf()
			}
			copy(dst.Vec[lo:lo+len(m.Vec)], m.Vec)
		}
		if len(m.Imag) > 0 {
			if dst.Imag == nil {
				dst.Imag = f.buf()
			}
			copy(dst.Imag[lo:lo+len(m.Imag)], m.Imag)
		}
	}
	p.got++
	if p.got < len(f.shardLns) {
		return Reply{}, false, nil
	}
	delete(slot.pending, rep.Iter)
	return Reply{Iter: rep.Iter, Worker: rep.Worker, Compute: p.compute, Msgs: p.msgs}, true, nil
}

// scatterCommPlane is the comm plane of the shard connections: raw64 at the
// run's chunk size (see the package comment — slice frames carry
// already-transformed values dense).
func scatterCommPlane(cp commPlane, dim int) (commPlane, error) {
	return CommOptions{Chunk: cp.pc.ChunkElems()}.resolve(dim)
}

// newScatterFabric wraps an accepted primary fabric with shard listeners and
// accepts the workers' shard connections: exactly one connection per (worker,
// shard), each handshaking with the worker's index and the agreed
// shard count; timeout bounds each accept and each hello read. Must be
// called after the primary accept so every worker is known to be dialing.
func newScatterFabric(primary *tcpFabric, shardLns []net.Listener, n int, timeout time.Duration, pool *BufferPool, cp commPlane, dim, shards int) (*scatterFabric, error) {
	scp, err := scatterCommPlane(cp, dim)
	if err != nil {
		return nil, err
	}
	f := &scatterFabric{
		tcpFabric: primary,
		shardLns:  shardLns,
		shardIn:   make([]atomic.Int64, shards),
		shardOut:  make([]atomic.Int64, shards),
		bounds:    shardBounds(dim, shards, cp.pc.ChunkElems()),
		dim:       dim,
		pool:      pool,
		slots:     make([]scatterSlot, n),
		out:       make(chan Reply, n*4+4),
	}
	for s, ln := range shardLns {
		for i := 0; i < n; i++ {
			if tl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok && timeout > 0 {
				if err := tl.SetDeadline(time.Now().Add(timeout)); err != nil {
					f.Close()
					return nil, err
				}
			}
			raw, err := ln.Accept()
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("cluster: scatter shard %d accept %d/%d: %w", s, i, n, err)
			}
			// Nested counters: the inner conn feeds the shard's own in/out
			// totals, the outer one the fabric-wide totals the engine samples.
			conn := CountConn(CountConn(raw, &f.shardIn[s], &f.shardOut[s]), &f.bytesIn, &f.bytesOut)
			codec := newWireCodec(conn, nil, scp)
			hello, err := codec.ReadHello(timeout)
			if err != nil {
				conn.Close()
				f.Close()
				return nil, fmt.Errorf("cluster: scatter shard %d handshake: %w", s, err)
			}
			if hello.Shards != shards {
				conn.Close()
				f.Close()
				return nil, fmt.Errorf("cluster: scatter shard %d handshake worker %d: shard count mismatch: worker %d, master %d",
					s, hello.Worker, hello.Shards, shards)
			}
			if hello.Worker < 0 || hello.Worker >= n {
				conn.Close()
				f.Close()
				return nil, fmt.Errorf("cluster: scatter shard %d handshake: worker index %d out of range", s, hello.Worker)
			}
			f.shardConns = append(f.shardConns, conn)
			f.readers.Add(1)
			go func(shard int, codec *wireCodec) {
				defer f.readers.Done()
				var rep Reply // ingest copies every frame out, so one serves all
				for {
					if err := codec.ReadReply(&rep); err != nil {
						return
					}
					full, ok, err := f.ingest(shard, rep)
					if err != nil {
						// Malformed slice frame: abandon this connection; the
						// iteration times out rather than decoding garbage.
						return
					}
					if ok {
						select {
						case f.out <- full:
						case <-f.quit:
							return
						}
					}
				}
			}(s, codec)
		}
	}
	return f, nil
}

// listenShards opens `shards` loopback listeners for the scatter plane.
func listenShards(shards int) ([]net.Listener, error) {
	lns := make([]net.Listener, 0, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("cluster: scatter shard %d listen: %w", s, err)
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// ServeMasterScatterPool is ServeMasterPool for a sharded master: the
// primary listener carries handshakes and model broadcasts, and shardLns
// (one per master shard, in shard order) receive the workers' scattered
// reply slices. n is the cluster size: every one of the n workers dials
// (crashed ones included), and worker indices are validated against it.
// Every worker must be
// given the shard listeners' addresses (Assign.ShardPorts /
// WorkerEnv.ShardAddrs) and the same shard count in its spec. The caller
// owns the listeners; Close on the returned fabric closes them.
func ServeMasterScatterPool(ln net.Listener, shardLns []net.Listener, n int, timeout time.Duration, pool *BufferPool, comm CommOptions, dim int) (Fabric, error) {
	cp, err := comm.resolve(dim)
	if err != nil {
		return nil, err
	}
	shards := len(shardLns)
	primary, err := acceptWorkers(ln, n, timeout, pool, comm, dim, shards)
	if err != nil {
		return nil, err
	}
	fab, err := newScatterFabric(primary, shardLns, n, timeout, pool, cp, dim, shards)
	if err != nil {
		primary.Close()
		return nil, err
	}
	return fab, nil
}

// dialShards opens the worker side of the scatter plane: one connection per
// shard address, each handshaking with the worker's identity and shard
// count. Returns the per-shard codecs and a closer.
func dialShards(addrs []string, worker int, cp commPlane, dim int) ([]*wireCodec, func(), error) {
	scp, err := scatterCommPlane(cp, dim)
	if err != nil {
		return nil, nil, err
	}
	conns := make([]net.Conn, 0, len(addrs))
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	codecs := make([]*wireCodec, 0, len(addrs))
	for s, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("cluster: worker %d dial shard %d: %w", worker, s, err)
		}
		conns = append(conns, conn)
		codec := newWireCodec(conn, nil, scp)
		h := scp.hello(worker)
		h.Shards = len(addrs)
		if err := codec.WriteHello(h); err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("cluster: worker %d shard %d hello: %w", worker, s, err)
		}
		codecs = append(codecs, codec)
	}
	return codecs, closeAll, nil
}

// scatterSend returns the worker's reply path under the scatter plane: apply
// the lossy transform once in-process (coder is the run comm plane's payload
// coder, nil for raw64), then write each shard its slice of every message.
// The slice headers repeat the reply metadata so each shard frame is
// self-contained. Payload buffers are recycled once every slice is on the
// wire.
func scatterSend(codecs []*wireCodec, bounds []int, coder *wire.VecCoder, bufs *BufferPool) func(Reply) error {
	// Reusable per-shard message scratch; the backing arrays grow once.
	scratch := make([][]coding.Message, len(codecs))
	return func(r Reply) error {
		applyReplyCodec(coder, r.Msgs)
		var firstErr error
		for s, codec := range codecs {
			lo, hi := bounds[s], bounds[s+1]
			msgs := scratch[s][:0]
			for _, m := range r.Msgs {
				sm := coding.Message{From: m.From, Tag: m.Tag, Units: m.Units}
				if m.Vec != nil {
					sm.Vec = m.Vec[lo:hi]
				}
				if m.Imag != nil {
					sm.Imag = m.Imag[lo:hi]
				}
				msgs = append(msgs, sm)
			}
			scratch[s] = msgs
			if err := codec.WriteReply(Reply{Iter: r.Iter, Worker: r.Worker, Compute: r.Compute, Msgs: msgs}); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cluster: worker %d scatter to shard %d: %w", r.Worker, s, err)
			}
		}
		recycleMsgs(bufs, r.Msgs)
		return firstErr
	}
}
