package wire

import (
	"bytes"
	"math"
	"testing"

	"bcc/internal/rngutil"
)

// transformReply returns a deep copy of rep with the codec's canonical
// in-process transform applied to every payload vector — exactly what a wire
// round trip under that codec must decode to, bit for bit.
func transformReply(pc PayloadConfig, rep Reply) Reply {
	coder := NewVecCoder(pc)
	out := rep
	out.Msgs = make([]Msg, len(rep.Msgs))
	cp := func(v []float64) []float64 { // preserves nil vs empty-non-nil
		if v == nil {
			return nil
		}
		c := make([]float64, len(v))
		copy(c, v)
		coder.ApplyReply(c)
		return c
	}
	for i, m := range rep.Msgs {
		m.Vec = cp(m.Vec)
		out.Msgs[i] = m
	}
	return out
}

// fuzzVec returns n standard-normal floats, or n adversarial bit patterns
// (see adversarialVec).
func fuzzVec(rng *rngutil.RNG, n int, adversarial bool) []float64 {
	if adversarial {
		return adversarialVec(rng, n)
	}
	v := make([]float64, n)
	for j := range v {
		v[j] = rng.Normal()
	}
	return v
}

// FuzzReplyRoundTrip mirrors internal/coding's property fuzzing for the
// codec: pseudo-random reply frames — including the nil-vector sentinel and
// empty vectors, under every payload codec and arbitrary chunk sizes — must
// decode bit-exactly to the codec's canonical transform through the
// buffer-reuse read path (ReadReplyInto with a recycling allocator and a
// reused Reply scratch), and the pooled read must agree with the plain
// ReadReply.
func FuzzReplyRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint16(4), false, uint8(0), uint8(0), uint16(0), false)
	f.Add(uint64(2), uint8(3), uint16(0), true, uint8(1), uint8(0), uint16(1), false)
	f.Add(uint64(3), uint8(0), uint16(9), false, uint8(2), uint8(3), uint16(8), false)
	f.Add(uint64(4), uint8(5), uint16(700), true, uint8(2), uint8(40), uint16(699), false)
	f.Add(uint64(5), uint8(2), uint16(512), false, uint8(1), uint8(0), uint16(513), false)
	// Adversarial raw64 payloads (NaN payloads, ±0, subnormals, ±Inf) at the
	// chunk sizes the byte-view tests pin: 1, 3, 512 and the whole vector.
	for _, c := range [][2]uint16{{1, 40}, {3, 40}, {512, 600}, {600, 600}} {
		f.Add(uint64(c[0]), uint8(2), c[1], false, uint8(0), uint8(0), c[0], true)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nmsgs uint8, dim uint16, nilVec bool, codec, topk uint8, chunk uint16, adversarial bool) {
		rng := rngutil.New(seed)
		if dim > 2048 {
			dim = dim % 2048
		}
		pc := PayloadConfig{Codec: PayloadCodec(codec % 3), TopK: int(topk), Chunk: int(chunk)}
		mk := func() Reply {
			rep := Reply{
				Iter:    int(rng.Intn(1 << 20)),
				Worker:  int(rng.Intn(1 << 10)),
				Compute: rng.Float64(),
				Msgs:    make([]Msg, int(nmsgs)),
			}
			for i := range rep.Msgs {
				m := Msg{
					From:  int(rng.Intn(1 << 10)),
					Tag:   int(rng.Intn(1<<12)) - 1,
					Units: rng.Float64(),
				}
				if !nilVec {
					m.Vec = fuzzVec(rng, int(dim), adversarial)
				}
				rep.Msgs[i] = m
			}
			return rep
		}
		first, second := mk(), mk()
		// Pristine copies: serialization must never mutate the caller's reply,
		// even under the lossy codecs (the transform happens during staging).
		origFirst := transformReply(PayloadConfig{}, first)
		origSecond := transformReply(PayloadConfig{}, second)
		wantFirst := transformReply(pc, first)
		wantSecond := transformReply(pc, second)

		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SetPayload(pc)
		for _, rep := range []Reply{first, second} {
			if err := w.WriteReply(rep); err != nil {
				t.Fatal(err)
			}
		}
		checkReplyEqual(t, &first, &origFirst)
		checkReplyEqual(t, &second, &origSecond)

		// A recycling allocator: buffers released after the first read are
		// reused for the second, exercising the "pooled buffer with stale
		// contents" path end to end.
		var free [][]float64
		alloc := func(n int) []float64 {
			for i, b := range free {
				if len(b) == n {
					free = append(free[:i], free[i+1:]...)
					return b
				}
			}
			return make([]float64, n)
		}
		release := func(rep *Reply) {
			for _, m := range rep.Msgs {
				if m.Vec != nil {
					free = append(free, m.Vec)
				}
			}
		}

		r := NewReader(&buf)
		r.SetPayload(pc)
		var got Reply // reused scratch across both reads
		for _, want := range []Reply{wantFirst, wantSecond} {
			if k, err := r.NextKind(); err != nil || k != KindReply {
				t.Fatalf("NextKind = %v, %v", k, err)
			}
			if err := r.ReadReplyInto(&got, alloc); err != nil {
				t.Fatal(err)
			}
			checkReplyEqual(t, &got, &want)
			release(&got)
		}

		// The plain (allocating) path must agree with the pooled one.
		buf.Reset()
		w2 := NewWriter(&buf)
		w2.SetPayload(pc)
		if err := w2.WriteReply(first); err != nil {
			t.Fatal(err)
		}
		r2 := NewReader(&buf)
		r2.SetPayload(pc)
		if _, err := r2.NextKind(); err != nil {
			t.Fatal(err)
		}
		plain, err := r2.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		checkReplyEqual(t, &plain, &wantFirst)
	})
}

// FuzzCodecRoundTrip is the comm-plane codec fuzzer: a single reply frame is
// written under an arbitrary codec and writer chunk size, then decoded with
// an INDEPENDENT reader chunk size (chunking is pure staging, so any reader
// granularity must parse any writer granularity), through an allocator that
// returns stale NaN-poisoned buffers (the reader must overwrite every
// element, including top-k's implicit zeros). Both raw64 paths — byte views
// and the portable per-element encoder — must write the same bytes and
// decode them alike. Every strict prefix of the frame must fail with an
// error — never panic, never succeed.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(8), uint8(0), uint16(0), uint16(0), uint16(0), false, false)
	f.Add(uint64(2), uint8(1), uint16(512), uint8(0), uint16(511), uint16(513), uint16(40), false, false)
	f.Add(uint64(3), uint8(2), uint16(100), uint8(9), uint16(1), uint16(512), uint16(90), false, false)
	f.Add(uint64(4), uint8(2), uint16(0), uint8(3), uint16(7), uint16(3), uint16(5), true, false)
	// Adversarial raw64 payloads at writer and reader chunk sizes 1, 3, 512
	// and the whole vector, cut inside a chunk.
	for _, c := range [][3]uint16{{1, 3, 40}, {3, 1, 40}, {512, 600, 600}, {600, 512, 600}} {
		f.Add(uint64(c[0]), uint8(0), c[2], uint8(0), c[0], c[1], uint16(4100), false, true)
	}
	f.Fuzz(func(t *testing.T, seed uint64, codec uint8, dim uint16, topk uint8, wchunk, rchunk, cut uint16, nilVec, adversarial bool) {
		rng := rngutil.New(seed)
		dim = dim % 2048
		cw := PayloadConfig{Codec: PayloadCodec(codec % 3), TopK: int(topk), Chunk: int(wchunk)}
		cr := cw
		cr.Chunk = int(rchunk)

		rep := Reply{Iter: int(rng.Intn(1 << 16)), Worker: 3, Compute: rng.Float64(), Msgs: make([]Msg, 2)}
		for i := range rep.Msgs {
			m := Msg{From: i, Tag: i - 1, Units: rng.Float64()}
			if !(nilVec && i == 0) {
				m.Vec = fuzzVec(rng, int(dim), adversarial)
			}
			rep.Msgs[i] = m
		}
		want := transformReply(cw, rep)

		var frame []byte
		for _, on := range encoderPaths() {
			withByteViews(on, func() {
				var buf bytes.Buffer
				w := NewWriter(&buf)
				w.SetPayload(cw)
				if err := w.WriteReply(rep); err != nil {
					t.Fatal(err)
				}
				if frame != nil && !bytes.Equal(buf.Bytes(), frame) {
					t.Fatalf("the byte-view and portable encoders disagree")
				}
				frame = buf.Bytes()
			})
		}

		for _, on := range encoderPaths() {
			withByteViews(on, func() {
				r := NewReader(bytes.NewReader(frame))
				r.SetPayload(cr)
				if k, err := r.NextKind(); err != nil || k != KindReply {
					t.Fatalf("NextKind = %v, %v", k, err)
				}
				var got Reply
				if err := r.ReadReplyInto(&got, poisonedAlloc); err != nil {
					t.Fatal(err)
				}
				checkReplyEqual(t, &got, &want)
			})
		}

		// Truncated streams: every strict prefix must error out cleanly.
		pre := int(cut) % len(frame)
		rt := NewReader(bytes.NewReader(frame[:pre]))
		rt.SetPayload(cr)
		var tr Reply
		if _, err := rt.NextKind(); err == nil {
			if err := rt.ReadReplyInto(&tr, poisonedAlloc); err == nil {
				t.Fatalf("reading a %d-byte prefix of a %d-byte frame succeeded", pre, len(frame))
			}
		}
	})
}

func checkReplyEqual(t *testing.T, got, want *Reply) {
	t.Helper()
	if got.Iter != want.Iter || got.Worker != want.Worker ||
		math.Float64bits(got.Compute) != math.Float64bits(want.Compute) {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.Msgs) != len(want.Msgs) {
		t.Fatalf("message count %d != %d", len(got.Msgs), len(want.Msgs))
	}
	for i := range want.Msgs {
		g, w := got.Msgs[i], want.Msgs[i]
		if g.From != w.From || g.Tag != w.Tag || math.Float64bits(g.Units) != math.Float64bits(w.Units) {
			t.Fatalf("msg %d header mismatch: got %+v want %+v", i, g, w)
		}
		checkVecEqual(t, i, "vec", g.Vec, w.Vec)
		if g.Imag != nil {
			t.Fatalf("msg %d: the reader set Imag", i)
		}
	}
}

func checkVecEqual(t *testing.T, i int, which string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("msg %d %s nil-ness changed: got nil=%v want nil=%v", i, which, got == nil, want == nil)
	}
	if len(got) != len(want) {
		t.Fatalf("msg %d %s length %d != %d", i, which, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("msg %d %s[%d] = %x want %x", i, which, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// FuzzSelect is the differential fuzzer of top-k selection: any vector
// family, length and K must give the sort-based reference's index set.
func FuzzSelect(f *testing.F) {
	for pattern := 0; pattern < selectPatterns; pattern++ {
		f.Add(uint64(pattern), uint16(1<<12), uint16(1<<8), uint8(pattern))
		f.Add(uint64(pattern), uint16(65), uint16(64), uint8(pattern))
	}
	f.Add(uint64(20), uint16(1), uint16(1), uint8(0))
	f.Add(uint64(21), uint16(300), uint16(0), uint8(3))
	f.Add(uint64(22), uint16(300), uint16(301), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, k uint16, pattern uint8) {
		checkSelect(t, selectVector(rngutil.New(seed), int(n), int(pattern)), int(k))
	})
}
