package cluster

import (
	"fmt"
	"net"
	"time"

	"bcc/internal/wire"
)

// wireCodec speaks the wire frame encoding on one connection. It is NOT
// safe for concurrent use, but the read and the write half are independent.
// Writing model frames is the fabric's business, not a connection's
// (connFabric.Broadcast).
type wireCodec struct {
	conn net.Conn
	pc   wire.PayloadConfig
	// w is built by the first write: the master only ever reads from its
	// connections, and a Writer holds a 64 KB buffer.
	w *wire.Writer
	r *wire.Reader
	// alloc supplies pooled buffers to the reads — reply payloads on the
	// master, queries on a worker; nil means plain allocation.
	alloc wire.VecAlloc
}

// newWireCodec builds the codec for conn under the resolved comm plane cp:
// payloads are serialized in the payload codec's compact representation.
// pool, if non-nil, backs deserialization: gradient-sized vectors are read
// straight into pooled buffers (the master's engine recycles reply payloads
// post-decode, a worker its queries once computed on), so the steady-state
// receive path of either end stops allocating.
func newWireCodec(conn net.Conn, pool *BufferPool, cp commPlane) *wireCodec {
	c := &wireCodec{conn: conn, pc: cp.pc, r: wire.NewReader(conn)}
	c.r.SetPayload(cp.pc)
	if pool != nil {
		dim := pool.Dim()
		c.alloc = func(n int) []float64 {
			if n != dim {
				return nil // wire falls back to a fresh allocation
			}
			return pool.Get()
		}
	}
	return c
}

// checkFrameCodec validates the deprecated frame-codec name fields
// (LiveOptions.Codec, WorkerEnv.Codec, ServeMasterPool's codecName): wire is
// the only frame encoding, so only "" and "wire" are accepted.
func checkFrameCodec(name string) error {
	if name != "" && name != "wire" {
		return fmt.Errorf("cluster: unknown codec %q (want wire)", name)
	}
	return nil
}

func (c *wireCodec) writer() *wire.Writer {
	if c.w == nil {
		c.w = wire.NewWriter(c.conn)
		c.w.SetPayload(c.pc)
	}
	return c.w
}

func (c *wireCodec) WriteHello(h wire.Hello) error { return c.writer().WriteHello(h) }

// ReadHello reads the connection's handshake frame. A positive timeout
// bounds the read and is cleared once the hello is in, so a peer that
// connects and never speaks (or speaks another protocol that waits for a
// reply) cannot wedge the master's accept loop.
func (c *wireCodec) ReadHello(timeout time.Duration) (wire.Hello, error) {
	if timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return wire.Hello{}, err
		}
	}
	if err := c.expect(wire.KindHello); err != nil {
		return wire.Hello{}, err
	}
	h, err := c.r.ReadHello()
	if err != nil {
		return h, err
	}
	return h, c.conn.SetReadDeadline(time.Time{})
}

func (c *wireCodec) ReadModel() (ModelUpdate, error) {
	if err := c.expect(wire.KindModel); err != nil {
		return ModelUpdate{}, err
	}
	return c.r.ReadModelInto(c.alloc)
}

func (c *wireCodec) WriteReply(r Reply) error { return c.writer().WriteReply(r) }

// ReadReply decodes the next reply frame into rep, reusing the capacity of
// rep.Msgs.
func (c *wireCodec) ReadReply(rep *Reply) error {
	if err := c.expect(wire.KindReply); err != nil {
		return err
	}
	return c.r.ReadReplyInto(rep, c.alloc)
}

func (c *wireCodec) expect(kind byte) error {
	k, err := c.r.NextKind()
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("cluster: expected frame kind %d, got %d", kind, k)
	}
	return nil
}
