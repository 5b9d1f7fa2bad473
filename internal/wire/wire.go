// Package wire is the compact, allocation-conscious binary encoding of the
// cluster protocol frames (model broadcasts, worker replies, handshakes) and
// the only frame encoding the TCP fabric speaks: float64 slices travel as
// raw little-endian words with no reflection or per-stream type state. The
// frame bodies are the cluster's own types (Msg is coding.Message), so
// encoding and decoding copy no fields.
//
// Frame layout (all integers little-endian):
//
//	frame := kind:uint8 body
//	hello := worker:uint32 codec:uint8 topk:uint32 chunk:uint32
//	model := iter:int64 level:uint32 vec(query)
//	reply := iter:int64 worker:uint32 compute:float64 nmsgs:uint32 msg*
//	msg   := from:uint32 tag:int64 units:float64 vec(vec)
//	vec   := len:uint32 body                 (len 0xFFFFFFFF encodes nil)
//
// The vec body depends on the payload codec both sides negotiated in the
// hello frame (see PayloadCodec):
//
//	raw64: float64*                          (len words)
//	f32:   float32*                          (len words; reply AND query)
//	topk:  k:uint32 (idx:uint32 val:float32)*  (k pairs, idx strictly
//	       ascending; queries stay raw64 under topk)
//
// On little-endian hosts a raw64 body is the float64 slice's own memory, so
// it moves as a byte view of the caller's slice: one write from it, one
// ReadFull into the destination, no per-element conversion and no staging
// copy. Every other body — f32, topk, raw64 on big-endian hosts — is
// converted word by word through a staging buffer of PayloadConfig.Chunk
// elements (DefaultChunk unless configured), one write or ReadFull per
// chunk. Chunking never changes the byte stream: it is identical for every
// chunk size and on every host.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"bcc/internal/coding"
)

// byteViews is set on little-endian hosts, where a float64's memory already
// is its raw64 wire encoding: raw64 vectors then move as byte views (see
// f64Bytes). On big-endian hosts every word is converted through staging.
// It is a variable only so the tests can run the portable path on any host.
var byteViews = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes views v's memory as its 8*len(v) bytes, without copying.
func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// Frame kinds.
const (
	KindHello byte = 1
	KindModel byte = 2
	KindReply byte = 3
)

// nilLen marks a nil slice (distinct from an empty one).
const nilLen = ^uint32(0)

// maxVecLen caps decoded vector lengths to keep a corrupted or malicious
// length prefix from provoking a huge allocation (64 Mi floats = 512 MiB).
const maxVecLen = 64 << 20

// VecAlloc supplies payload buffers to the reader's *Into entry points so
// steady-state deserialization reuses pooled memory. It returns a length-n
// buffer with arbitrary contents (the reader overwrites every element); a
// nil VecAlloc — or a wrongly-sized return — falls back to a fresh
// allocation.
type VecAlloc func(n int) []float64

// Hello is the handshake frame body. It carries the sender's payload-codec
// parameters so master and workers can detect disagreement before any
// payload frame is misparsed.
type Hello struct {
	Worker int
	Codec  PayloadCodec
	TopK   int
	Chunk  int
}

// Model is a model-broadcast frame body; Iter < 0 signals shutdown. Level
// is the iteration's active redundancy level on re-tunable code families
// (0 = fixed plan).
type Model struct {
	Iter  int
	Level int
	Query []float64
}

// Msg is one coded message of a reply frame.
type Msg = coding.Message

// Reply is a worker-reply frame body.
type Reply struct {
	Iter    int
	Worker  int
	Compute float64
	Msgs    []Msg
}

// sink is where a Writer's encoded bytes go: a bufio.Writer toward a
// connection, or a Frame.
type sink interface {
	io.Writer
	io.ByteWriter
	Flush() error
}

// Writer frames and buffers outgoing frames. Not safe for concurrent use.
// The zero payload config is raw64 with the default chunk size; SetPayload
// switches codecs.
type Writer struct {
	bw      sink
	pc      PayloadConfig
	chunk   int
	coder   VecCoder // top-k selection scratch for vecTopK
	scratch [8]byte
	vbuf    []byte // bulk staging, grown to at most chunk*8 bytes
}

// NewWriter wraps w with the default raw64 payload codec.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), chunk: DefaultChunk}
}

// Frame is an in-memory frame buffer: a Writer from NewFrameWriter appends
// the frames it encodes to it, so one encoding can be written to any number
// of connections (the tcp fabric's broadcast). Truncate it (f = f[:0])
// between frames to reuse the memory.
type Frame []byte

func (f *Frame) Write(p []byte) (int, error) { *f = append(*f, p...); return len(p), nil }
func (f *Frame) WriteByte(c byte) error      { *f = append(*f, c); return nil }
func (f *Frame) Flush() error                { return nil }

// NewFrameWriter returns a Writer that encodes into f, byte for byte what
// NewWriter's would put on a connection, with no buffer in between.
func NewFrameWriter(f *Frame) *Writer {
	return &Writer{bw: f, chunk: DefaultChunk}
}

// SetPayload selects the payload codec and chunk size for subsequent frames.
// Both ends of a connection must agree (the cluster layer negotiates this in
// the hello exchange).
func (w *Writer) SetPayload(pc PayloadConfig) {
	w.pc = pc
	w.chunk = pc.chunkElems()
	w.coder = VecCoder{cfg: pc}
	w.vbuf = nil
}

func (w *Writer) u8(v byte) error { return w.bw.WriteByte(v) }

func (w *Writer) u32(v uint32) error {
	binary.LittleEndian.PutUint32(w.scratch[:4], v)
	_, err := w.bw.Write(w.scratch[:4])
	return err
}

func (w *Writer) i64(v int64) error {
	binary.LittleEndian.PutUint64(w.scratch[:8], uint64(v))
	_, err := w.bw.Write(w.scratch[:8])
	return err
}

func (w *Writer) f64(v float64) error {
	binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(v))
	_, err := w.bw.Write(w.scratch[:8])
	return err
}

// stage returns the byte staging buffer, grown to hold one chunk of 8-byte
// words (the widest element the codec stages).
func (w *Writer) stage(n int) []byte {
	if cap(w.vbuf) < n {
		w.vbuf = make([]byte, w.chunk*8)
	}
	return w.vbuf[:n]
}

// vecRaw writes a length-prefixed float64 slice. On little-endian hosts the
// body is one write of the slice's byte view — a bufio sink copies only what
// fits its buffer and hands the rest straight to the connection — and
// otherwise one write per chunk of words converted into the byte scratch.
func (w *Writer) vecRaw(v []float64) error {
	if v == nil {
		return w.u32(nilLen)
	}
	if err := w.u32(uint32(len(v))); err != nil {
		return err
	}
	if byteViews {
		_, err := w.bw.Write(f64Bytes(v))
		return err
	}
	for len(v) > 0 {
		n := min(len(v), w.chunk)
		buf := w.stage(n * 8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v[i]))
		}
		if _, err := w.bw.Write(buf); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// vecF32 writes a length-prefixed slice as float32 words.
func (w *Writer) vecF32(v []float64) error {
	if v == nil {
		return w.u32(nilLen)
	}
	if err := w.u32(uint32(len(v))); err != nil {
		return err
	}
	for len(v) > 0 {
		n := len(v)
		if n > w.chunk {
			n = w.chunk
		}
		buf := w.stage(n * 4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(v[i])))
		}
		if _, err := w.bw.Write(buf); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// vecTopK writes the K largest-|v| coordinates as ascending (index, value)
// pairs. Selection runs on the raw float64 values — exactly the canonical
// VecCoder transform — so the decoded vector is bit-identical to what an
// in-process runtime computes.
func (w *Writer) vecTopK(v []float64) error {
	if v == nil {
		return w.u32(nilLen)
	}
	if err := w.u32(uint32(len(v))); err != nil {
		return err
	}
	kept := w.coder.Select(v)
	if err := w.u32(uint32(len(kept))); err != nil {
		return err
	}
	for len(kept) > 0 {
		n := len(kept)
		if n > w.chunk {
			n = w.chunk
		}
		buf := w.stage(n * 8)
		for i := 0; i < n; i++ {
			idx := kept[i]
			binary.LittleEndian.PutUint32(buf[i*8:], uint32(idx))
			binary.LittleEndian.PutUint32(buf[i*8+4:], math.Float32bits(float32(v[idx])))
		}
		if _, err := w.bw.Write(buf); err != nil {
			return err
		}
		kept = kept[n:]
	}
	return nil
}

// vecReply dispatches a reply payload vector through the configured codec.
func (w *Writer) vecReply(v []float64) error {
	switch w.pc.Codec {
	case PayloadF32:
		return w.vecF32(v)
	case PayloadTopK:
		return w.vecTopK(v)
	}
	return w.vecRaw(v)
}

// vecQuery dispatches a model query: f32 quantizes queries, topk ships them
// dense (raw64).
func (w *Writer) vecQuery(v []float64) error {
	if w.pc.Codec == PayloadF32 {
		return w.vecF32(v)
	}
	return w.vecRaw(v)
}

// WriteHello emits a handshake frame and flushes.
func (w *Writer) WriteHello(h Hello) error {
	if err := w.u8(KindHello); err != nil {
		return err
	}
	if err := w.u32(uint32(h.Worker)); err != nil {
		return err
	}
	if err := w.u8(byte(h.Codec)); err != nil {
		return err
	}
	if err := w.u32(uint32(h.TopK)); err != nil {
		return err
	}
	if err := w.u32(uint32(h.Chunk)); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteModel emits a model-broadcast frame and flushes.
func (w *Writer) WriteModel(m Model) error {
	if err := w.u8(KindModel); err != nil {
		return err
	}
	if err := w.i64(int64(m.Iter)); err != nil {
		return err
	}
	if err := w.u32(uint32(m.Level)); err != nil {
		return err
	}
	if err := w.vecQuery(m.Query); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteReply emits a worker-reply frame and flushes. Under a lossy payload
// codec the transform is applied during serialization; the caller's slices
// are never mutated. The frame has no imaginary slot, so a message with a
// non-nil Imag is refused before anything is written.
func (w *Writer) WriteReply(r Reply) error {
	for _, m := range r.Msgs {
		if m.Imag != nil {
			return fmt.Errorf("wire: reply message from worker %d has an imaginary part; the frame carries real payloads only", m.From)
		}
	}
	if err := w.u8(KindReply); err != nil {
		return err
	}
	if err := w.i64(int64(r.Iter)); err != nil {
		return err
	}
	if err := w.u32(uint32(r.Worker)); err != nil {
		return err
	}
	if err := w.f64(r.Compute); err != nil {
		return err
	}
	if err := w.u32(uint32(len(r.Msgs))); err != nil {
		return err
	}
	for _, m := range r.Msgs {
		if err := w.u32(uint32(m.From)); err != nil {
			return err
		}
		if err := w.i64(int64(m.Tag)); err != nil {
			return err
		}
		if err := w.f64(m.Units); err != nil {
			return err
		}
		if err := w.vecReply(m.Vec); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// Reader decodes frames. Not safe for concurrent use. The zero payload
// config is raw64 with the default chunk size; SetPayload must match the
// writing side.
type Reader struct {
	br      *bufio.Reader
	pc      PayloadConfig
	chunk   int
	scratch [8]byte
	vbuf    []byte // bulk staging, grown to at most chunk*8 bytes
}

// NewReader wraps r with the default raw64 payload codec.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), chunk: DefaultChunk}
}

// SetPayload selects the payload codec and chunk size for subsequent frames;
// it must mirror the writing side's SetPayload.
func (r *Reader) SetPayload(pc PayloadConfig) {
	r.pc = pc
	r.chunk = pc.chunkElems()
	r.vbuf = nil
}

func (r *Reader) u8() (byte, error) { return r.br.ReadByte() }

func (r *Reader) u32() (uint32, error) {
	if _, err := io.ReadFull(r.br, r.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.scratch[:4]), nil
}

func (r *Reader) i64() (int64, error) {
	if _, err := io.ReadFull(r.br, r.scratch[:8]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(r.scratch[:8])), nil
}

func (r *Reader) f64() (float64, error) {
	if _, err := io.ReadFull(r.br, r.scratch[:8]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.scratch[:8])), nil
}

// stage returns the byte staging buffer, grown to hold one chunk of 8-byte
// words.
func (r *Reader) stage(n int) []byte {
	if cap(r.vbuf) < n {
		r.vbuf = make([]byte, r.chunk*8)
	}
	return r.vbuf[:n]
}

// vecLen reads and validates a vector length prefix; ok is false for the
// nil sentinel.
func (r *Reader) vecLen() (n int, ok bool, err error) {
	u, err := r.u32()
	if err != nil {
		return 0, false, err
	}
	if u == nilLen {
		return 0, false, nil
	}
	if u > maxVecLen {
		return 0, false, fmt.Errorf("wire: vector length %d exceeds limit", u)
	}
	return int(u), true, nil
}

// vecBuf draws an n-element destination from alloc, falling back to a fresh
// allocation when alloc is nil or returns a wrongly-sized buffer.
func vecBuf(alloc VecAlloc, n int) []float64 {
	var v []float64
	if alloc != nil {
		v = alloc(n)
	}
	if len(v) != n || v == nil {
		// make([]float64, 0) is non-nil: an empty wire vector must stay
		// distinguishable from the nilLen sentinel after a round trip.
		v = make([]float64, n)
	}
	return v
}

// vecRaw reads a raw64 vector body into a buffer from alloc: straight into
// the buffer's byte view on little-endian hosts, through the byte scratch
// otherwise. A byte-view read is one ReadFull of the whole body, which bufio
// serves from the connection directly once its own buffer is drained.
func (r *Reader) vecRaw(alloc VecAlloc) ([]float64, error) {
	n, ok, err := r.vecLen()
	if err != nil || !ok {
		return nil, err
	}
	v := vecBuf(alloc, n)
	if byteViews {
		if _, err := io.ReadFull(r.br, f64Bytes(v)); err != nil {
			return nil, err
		}
		return v, nil
	}
	for off := 0; off < n; {
		k := min(n-off, r.chunk)
		buf := r.stage(k * 8)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, err
		}
		dst := v[off : off+k]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		off += k
	}
	return v, nil
}

// vecF32 reads an f32 vector body, widening each word to float64.
func (r *Reader) vecF32(alloc VecAlloc) ([]float64, error) {
	n, ok, err := r.vecLen()
	if err != nil || !ok {
		return nil, err
	}
	v := vecBuf(alloc, n)
	for off := 0; off < n; {
		k := n - off
		if k > r.chunk {
			k = r.chunk
		}
		buf := r.stage(k * 4)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			v[off+i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		}
		off += k
	}
	return v, nil
}

// vecTopK reads a top-k vector body: k ascending (index, value) pairs
// scattered into a zero-filled dense buffer.
func (r *Reader) vecTopK(alloc VecAlloc) ([]float64, error) {
	n, ok, err := r.vecLen()
	if err != nil || !ok {
		return nil, err
	}
	ku, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(ku) > int64(n) {
		return nil, fmt.Errorf("wire: topk count %d exceeds vector length %d", ku, n)
	}
	k := int(ku)
	v := vecBuf(alloc, n)
	for i := range v {
		v[i] = 0
	}
	prev := int64(-1)
	for off := 0; off < k; {
		m := k - off
		if m > r.chunk {
			m = r.chunk
		}
		buf := r.stage(m * 8)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			idx := int64(binary.LittleEndian.Uint32(buf[i*8:]))
			if idx <= prev || idx >= int64(n) {
				return nil, fmt.Errorf("wire: topk index %d out of order or range (prev %d, len %d)", idx, prev, n)
			}
			prev = idx
			v[idx] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[i*8+4:])))
		}
		off += m
	}
	return v, nil
}

// vecReply dispatches a reply payload read through the configured codec.
func (r *Reader) vecReply(alloc VecAlloc) ([]float64, error) {
	switch r.pc.Codec {
	case PayloadF32:
		return r.vecF32(alloc)
	case PayloadTopK:
		return r.vecTopK(alloc)
	}
	return r.vecRaw(alloc)
}

// vecQuery dispatches a model query read (f32 quantizes queries, raw64
// otherwise — mirroring Writer.vecQuery).
func (r *Reader) vecQuery(alloc VecAlloc) ([]float64, error) {
	if r.pc.Codec == PayloadF32 {
		return r.vecF32(alloc)
	}
	return r.vecRaw(alloc)
}

// NextKind reads the next frame's kind byte. Data-plane and control-plane
// kinds (see control.go) share one contiguous range.
func (r *Reader) NextKind() (byte, error) {
	k, err := r.u8()
	if err != nil {
		return 0, err
	}
	if k < KindHello || k > KindState {
		return 0, fmt.Errorf("wire: unknown frame kind %d", k)
	}
	return k, nil
}

// ReadHello decodes a handshake body (after NextKind returned KindHello).
func (r *Reader) ReadHello() (Hello, error) {
	w, err := r.u32()
	if err != nil {
		return Hello{}, err
	}
	codec, err := r.u8()
	if err != nil {
		return Hello{}, err
	}
	if codec > byte(PayloadTopK) {
		return Hello{}, fmt.Errorf("wire: unknown payload codec byte %d in hello", codec)
	}
	topk, err := r.u32()
	if err != nil {
		return Hello{}, err
	}
	chunk, err := r.u32()
	if err != nil {
		return Hello{}, err
	}
	return Hello{Worker: int(w), Codec: PayloadCodec(codec), TopK: int(topk), Chunk: int(chunk)}, nil
}

// ReadModel decodes a model body (after NextKind returned KindModel) into a
// freshly allocated query.
func (r *Reader) ReadModel() (Model, error) {
	return r.ReadModelInto(nil)
}

// ReadModelInto is ReadModel drawing the query buffer from alloc (nil means
// a fresh allocation), the read path a TCP worker uses to reuse one query
// buffer across broadcasts. A nil query on the wire (the shutdown frame)
// decodes to nil without consulting alloc.
func (r *Reader) ReadModelInto(alloc VecAlloc) (Model, error) {
	iter, err := r.i64()
	if err != nil {
		return Model{}, err
	}
	level, err := r.u32()
	if err != nil {
		return Model{}, err
	}
	q, err := r.vecQuery(alloc)
	if err != nil {
		return Model{}, err
	}
	return Model{Iter: int(iter), Level: int(level), Query: q}, nil
}

// ReadReply decodes a reply body (after NextKind returned KindReply).
func (r *Reader) ReadReply() (Reply, error) {
	var rep Reply
	err := r.ReadReplyInto(&rep, nil)
	return rep, err
}

// ReadReplyInto decodes a reply body into rep, reusing rep's Msgs backing
// array when it has capacity and drawing payload buffers from alloc — the
// buffer-reuse read path the TCP master uses to deserialize replies straight
// into pooled gradient buffers. alloc may be nil (fresh allocations). On
// error rep's contents are unspecified. Nil vectors on the wire (the nilLen
// sentinel) decode to nil without consulting alloc.
func (r *Reader) ReadReplyInto(rep *Reply, alloc VecAlloc) error {
	iter, err := r.i64()
	if err != nil {
		return err
	}
	worker, err := r.u32()
	if err != nil {
		return err
	}
	compute, err := r.f64()
	if err != nil {
		return err
	}
	nmsgs, err := r.u32()
	if err != nil {
		return err
	}
	if nmsgs > 1<<20 {
		return fmt.Errorf("wire: message count %d exceeds limit", nmsgs)
	}
	rep.Iter = int(iter)
	rep.Worker = int(worker)
	rep.Compute = compute
	if cap(rep.Msgs) < int(nmsgs) {
		rep.Msgs = make([]Msg, nmsgs)
	} else {
		rep.Msgs = rep.Msgs[:nmsgs]
	}
	for i := range rep.Msgs {
		from, err := r.u32()
		if err != nil {
			return err
		}
		tag, err := r.i64()
		if err != nil {
			return err
		}
		units, err := r.f64()
		if err != nil {
			return err
		}
		vec, err := r.vecReply(alloc)
		if err != nil {
			return err
		}
		rep.Msgs[i] = Msg{From: int(from), Tag: int(tag), Units: units, Vec: vec}
	}
	return nil
}
