package wire

import (
	"bytes"
	"math"
	"testing"

	"bcc/internal/rngutil"
)

// The byte-view tests pin the raw64 fast path to the portable per-element
// encoder: on a little-endian host both must put exactly the same bytes on
// the wire and decode them to exactly the same bits, for every float64 a
// gradient can hold and at every chunk size.

// specialBits are the float64 bit patterns a byte view must carry untouched:
// NaNs with payload bits (quiet and signalling, both signs), ±0, subnormals,
// ±Inf and the finite extremes.
var specialBits = []uint64{
	0x7ff8000000000000, // quiet NaN
	0x7ff0000000000001, // signalling NaN, lowest payload bit
	0x7ff7ffffffffffff, // signalling NaN, every payload bit
	0xfff8deadbeef0001, // negative quiet NaN with a payload
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x0000000000000001, // smallest subnormal
	0x800fffffffffffff, // largest-magnitude negative subnormal
	0x0010000000000000, // smallest normal
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x7fefffffffffffff, // MaxFloat64
	0xffefffffffffffff, // -MaxFloat64
}

// adversarialVec returns n floats that open with every special pattern and
// continue with a mix of special patterns and uniformly random bits.
func adversarialVec(rng *rngutil.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		bits := rng.Uint64()
		if i < len(specialBits) {
			bits = specialBits[i]
		} else if rng.Bernoulli(0.25) {
			bits = specialBits[rng.Intn(len(specialBits))]
		}
		v[i] = math.Float64frombits(bits)
	}
	return v
}

// adversarialReply is a two-message reply over p-element adversarial
// vectors, and adversarialModel a model frame body over one.
func adversarialReply(rng *rngutil.RNG, p int) Reply {
	return Reply{Iter: 9, Worker: 4, Compute: math.Float64frombits(specialBits[1]), Msgs: []Msg{
		{From: 4, Tag: 2, Units: 1, Vec: adversarialVec(rng, p)},
		{From: 5, Tag: -1, Units: 0.5, Vec: adversarialVec(rng, p)},
	}}
}

func adversarialModel(rng *rngutil.RNG, p int) Model {
	return Model{Iter: 9, Level: 2, Query: adversarialVec(rng, p)}
}

// encoderPaths lists the raw64 paths this host can run: the portable
// per-element one always, the byte view on little-endian hosts.
func encoderPaths() []bool {
	if byteViews {
		return []bool{false, true}
	}
	return []bool{false}
}

// withByteViews runs fn with the raw64 byte-view path switched on or off.
func withByteViews(on bool, fn func()) {
	old := byteViews
	byteViews = on
	defer func() { byteViews = old }()
	fn()
}

// encode runs write at chunk size chunk through a connection Writer
// (frame=false) or an in-memory Frame (frame=true) and returns the bytes.
func encode(t *testing.T, chunk int, frame bool, write func(*Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	var f Frame
	w := NewWriter(&buf)
	if frame {
		w = NewFrameWriter(&f)
	}
	w.SetPayload(PayloadConfig{Chunk: chunk})
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if frame {
		return f
	}
	return buf.Bytes()
}

// encodeFrames writes rep then mod.
func encodeFrames(t *testing.T, rep Reply, mod Model, chunk int, frame bool) []byte {
	t.Helper()
	return encode(t, chunk, frame, func(w *Writer) error {
		if err := w.WriteReply(rep); err != nil {
			return err
		}
		return w.WriteModel(mod)
	})
}

// TestRaw64ByteViewBytes: the byte-view encoder writes exactly the bytes of
// the portable encoder, through a connection writer and an in-memory frame,
// and both decoders read them back bit for bit.
func TestRaw64ByteViewBytes(t *testing.T) {
	for _, p := range []int{1, 37, 600} {
		for _, chunk := range []int{1, 3, 512, p} {
			rng := rngutil.New(uint64(p*1000 + chunk))
			rep, mod := adversarialReply(rng, p), adversarialModel(rng, p)
			var want []byte
			withByteViews(false, func() { want = encodeFrames(t, rep, mod, chunk, false) })
			for _, on := range encoderPaths() {
				withByteViews(on, func() {
					for _, frame := range []bool{false, true} {
						if got := encodeFrames(t, rep, mod, chunk, frame); !bytes.Equal(got, want) {
							t.Fatalf("p %d chunk %d views=%v frame=%v: %d bytes differ from the portable encoder's %d",
								p, chunk, on, frame, len(got), len(want))
						}
					}
					r := NewReader(bytes.NewReader(want))
					r.SetPayload(PayloadConfig{Chunk: chunk})
					if k, err := r.NextKind(); err != nil || k != KindReply {
						t.Fatalf("NextKind = %v, %v", k, err)
					}
					var got Reply
					if err := r.ReadReplyInto(&got, poisonedAlloc); err != nil {
						t.Fatalf("p %d chunk %d views=%v: %v", p, chunk, on, err)
					}
					checkReplyEqual(t, &got, &rep)
					if k, err := r.NextKind(); err != nil || k != KindModel {
						t.Fatalf("NextKind = %v, %v", k, err)
					}
					m, err := r.ReadModelInto(poisonedAlloc)
					if err != nil {
						t.Fatalf("p %d chunk %d views=%v: %v", p, chunk, on, err)
					}
					if m.Iter != mod.Iter || m.Level != mod.Level {
						t.Fatalf("model header %+v", m)
					}
					checkVecEqual(t, 0, "query", m.Query, mod.Query)
				})
			}
		}
	}
}

// TestRaw64TruncatedFramesError: every strict prefix of an adversarial reply
// or model frame fails with an error on both decoders, never a panic.
func TestRaw64TruncatedFramesError(t *testing.T) {
	const p = 37
	for _, chunk := range []int{1, 3, 512, p} {
		rng := rngutil.New(uint64(chunk))
		rep, mod := adversarialReply(rng, p), adversarialModel(rng, p)
		frames := map[byte][]byte{
			KindReply: encode(t, chunk, false, func(w *Writer) error { return w.WriteReply(rep) }),
			KindModel: encode(t, chunk, false, func(w *Writer) error { return w.WriteModel(mod) }),
		}
		for kind, frame := range frames {
			for _, on := range encoderPaths() {
				withByteViews(on, func() {
					for cut := 0; cut < len(frame); cut++ {
						r := NewReader(bytes.NewReader(frame[:cut]))
						r.SetPayload(PayloadConfig{Chunk: chunk})
						if _, err := r.NextKind(); err != nil {
							continue // cut before the kind byte
						}
						var err error
						if kind == KindReply {
							var got Reply
							err = r.ReadReplyInto(&got, poisonedAlloc)
						} else {
							_, err = r.ReadModelInto(poisonedAlloc)
						}
						if err == nil {
							t.Fatalf("chunk %d kind %d views=%v: a %d-byte prefix of a %d-byte frame decoded",
								chunk, kind, on, cut, len(frame))
						}
					}
				})
			}
		}
	}
}

// TestReadModelIntoReusesBuffer: the query lands in the buffer alloc hands
// out, and the shutdown frame's nil query never consults alloc.
func TestReadModelIntoReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, m := range []Model{{Iter: 1, Query: []float64{1, 2, 3}}, {Iter: -1}} {
		if err := w.WriteModel(m); err != nil {
			t.Fatal(err)
		}
	}
	mine := make([]float64, 3)
	calls := 0
	alloc := func(int) []float64 { calls++; return mine }
	r := NewReader(&buf)
	for _, want := range [][]float64{{1, 2, 3}, nil} {
		if _, err := r.NextKind(); err != nil {
			t.Fatal(err)
		}
		m, err := r.ReadModelInto(alloc)
		if err != nil {
			t.Fatal(err)
		}
		checkVecEqual(t, m.Iter, "query", m.Query, want)
	}
	if mine[2] != 3 || calls != 1 {
		t.Fatalf("query buffer %v after %d alloc calls: want [1 2 3] after 1", mine, calls)
	}
}

// poisonedAlloc hands out NaN-filled buffers, so a decoder that skips an
// element shows.
func poisonedAlloc(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.NaN()
	}
	return b
}
