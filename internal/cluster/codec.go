package cluster

import (
	"encoding/gob"
	"fmt"
	"io"

	"bcc/internal/coding"
	"bcc/internal/wire"
)

// frameCodec abstracts the on-the-wire encoding of the TCP fabric's three
// frame types on one connection. Implementations are NOT safe for concurrent
// use, but the read and the write half are independent. Writing model frames
// is the fabric's business, not a connection's (tcpFabric.Broadcast).
type frameCodec interface {
	WriteHello(Hello) error
	ReadHello() (Hello, error)
	ReadModel() (ModelUpdate, error)
	WriteReply(Reply) error
	ReadReply() (Reply, error)
}

// newFrameCodec builds a codec of the named kind over the connection.
// Supported: "gob" (default; self-describing, robust) and "wire" (compact
// hand-rolled binary, ~3-5x faster on gradient payloads). pool, if non-nil,
// backs the wire codec's reply deserialization: gradient-sized payloads are
// read straight into pooled buffers (the engine recycles them post-decode),
// so the TCP master's steady-state receive path stops allocating. cp is the
// resolved comm plane: the wire codec serializes payloads in the codec's
// compact representation, while gob applies the lossy transform in place
// before encoding (deterministically identical values, but gob's dense
// self-describing format does not shrink the bytes on the wire — only the
// wire frame codec realizes the compaction).
func newFrameCodec(name string, rw io.ReadWriter, pool *BufferPool, cp commPlane) (frameCodec, error) {
	switch name {
	case "", "gob":
		return &gobCodec{enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw), coder: cp.newCoder()}, nil
	case "wire":
		c := &wireCodec{conn: rw, pc: cp.pc, r: wire.NewReader(rw)}
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
		return c, nil
	default:
		return nil, fmt.Errorf("cluster: unknown codec %q (want gob or wire)", name)
	}
}

// ---------------------------------------------------------------------------
// gob
// ---------------------------------------------------------------------------

type gobCodec struct {
	enc *gob.Encoder
	dec *gob.Decoder
	// coder applies the lossy payload transform during serialization (nil for
	// raw64). gob ships the transformed vector dense, so decoded values match
	// the wire codec bit for bit even though gob's byte count doesn't shrink.
	coder *wire.VecCoder
}

func (c *gobCodec) WriteHello(h Hello) error { return c.enc.Encode(&h) }
func (c *gobCodec) ReadHello() (Hello, error) {
	var h Hello
	err := c.dec.Decode(&h)
	return h, err
}
func (c *gobCodec) WriteModel(m ModelUpdate) error { return c.enc.Encode(&m) }
func (c *gobCodec) ReadModel() (ModelUpdate, error) {
	var m ModelUpdate
	err := c.dec.Decode(&m)
	return m, err
}
func (c *gobCodec) WriteReply(r Reply) error {
	// The payload buffers are owned by this worker until the frame is
	// serialized (the receiver gets gob's fresh copies), so transforming in
	// place here is safe and puts the lossy step at the same wire boundary
	// the other runtimes use.
	applyReplyCodec(c.coder, r.Msgs)
	return c.enc.Encode(&r)
}
func (c *gobCodec) ReadReply() (Reply, error) {
	var r Reply
	err := c.dec.Decode(&r)
	return r, err
}

// ---------------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------------

type wireCodec struct {
	conn io.Writer
	pc   wire.PayloadConfig
	// w is built by the first write: the master only ever reads from its
	// connections, and a Writer holds a 64 KB buffer.
	w *wire.Writer
	r *wire.Reader
	// alloc supplies pooled payload buffers to ReadReplyInto; nil means
	// plain allocation.
	alloc wire.VecAlloc
	// scratch is the reusable wire-level reply frame: its Msgs backing array
	// is recycled across reads (the payload buffers inside are handed off to
	// the cluster-level Reply, which the master owns).
	scratch wire.Reply
	// out is the write half's reusable message-header scratch.
	out []wire.Msg
}

func (c *wireCodec) writer() *wire.Writer {
	if c.w == nil {
		c.w = wire.NewWriter(c.conn)
		c.w.SetPayload(c.pc)
	}
	return c.w
}

func (c *wireCodec) WriteHello(h Hello) error {
	codec, err := wire.ParsePayloadCodec(h.Payload)
	if err != nil {
		return err
	}
	return c.writer().WriteHello(wire.Hello{Worker: h.Worker, Codec: codec, TopK: h.TopK, Chunk: h.Chunk, Shards: h.Shards})
}

func (c *wireCodec) ReadHello() (Hello, error) {
	if err := c.expect(wire.KindHello); err != nil {
		return Hello{}, err
	}
	h, err := c.r.ReadHello()
	return Hello{Worker: h.Worker, Payload: h.Codec.String(), TopK: h.TopK, Chunk: h.Chunk, Shards: h.Shards}, err
}

func (c *wireCodec) ReadModel() (ModelUpdate, error) {
	if err := c.expect(wire.KindModel); err != nil {
		return ModelUpdate{}, err
	}
	m, err := c.r.ReadModel()
	return ModelUpdate{Iter: m.Iter, Level: m.Level, Query: m.Query}, err
}

func (c *wireCodec) WriteReply(r Reply) error {
	c.out = c.out[:0]
	for _, m := range r.Msgs {
		c.out = append(c.out, wire.Msg{From: m.From, Tag: m.Tag, Units: m.Units, Vec: m.Vec, Imag: m.Imag})
	}
	return c.writer().WriteReply(wire.Reply{Iter: r.Iter, Worker: r.Worker, Compute: r.Compute, Msgs: c.out})
}

func (c *wireCodec) ReadReply() (Reply, error) {
	if err := c.expect(wire.KindReply); err != nil {
		return Reply{}, err
	}
	if err := c.r.ReadReplyInto(&c.scratch, c.alloc); err != nil {
		return Reply{}, err
	}
	in := &c.scratch
	rep := Reply{Iter: in.Iter, Worker: in.Worker, Compute: in.Compute}
	rep.Msgs = make([]coding.Message, len(in.Msgs))
	for i, m := range in.Msgs {
		rep.Msgs[i] = coding.Message{From: m.From, Tag: m.Tag, Units: m.Units, Vec: m.Vec, Imag: m.Imag}
	}
	return rep, nil
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
