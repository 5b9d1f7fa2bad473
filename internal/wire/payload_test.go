package wire

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"bcc/internal/rngutil"
)

// refSelect is the obviously-correct top-k reference: order every index by
// (magnitude descending, index ascending) and keep the first k, returned
// ascending. Magnitudes compare as the bits of |v| — the documented total
// order, identical to comparing |v| except that it also ranks NaN (above
// +Inf).
func refSelect(v []float64, k int) []int32 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) uint64 { return math.Float64bits(math.Abs(v[i])) }
	sort.SliceStable(idx, func(a, b int) bool {
		av, bv := key(idx[a]), key(idx[b])
		if av != bv {
			return av > bv
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	kept := make([]int32, k)
	for i := 0; i < k; i++ {
		kept[i] = int32(idx[i])
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
	return kept
}

// checkSelect compares Select, and the ApplyReply transform that rides the
// same threshold, against refSelect on one vector.
func checkSelect(t *testing.T, v []float64, k int) {
	t.Helper()
	coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: k})
	got := coder.Select(v)
	want := refSelect(v, k)
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("n=%d k=%d: kept %d indices, want %d; first difference at position %d", len(v), k, len(got), len(want), i)
	}
	sparse := slices.Clone(v)
	coder.ApplyReply(sparse)
	j := 0
	for i, x := range sparse {
		want32 := 0.0
		if j < len(want) && int(want[j]) == i {
			want32 = float64(float32(v[i]))
			j++
		}
		if math.Float64bits(x) != math.Float64bits(want32) {
			t.Fatalf("n=%d k=%d: ApplyReply[%d] = %v, want %v", len(v), k, i, x, want32)
		}
	}
}

// selectPatterns is the number of vector families selectVector draws from.
const selectPatterns = 10

// selectVector draws an n-vector from one of the families the selector's
// descent treats differently: how many keys share high digits, how large the
// tie mass at the threshold is, and where the special encodings sit.
func selectVector(rng *rngutil.RNG, n int, pattern int) []float64 {
	v := make([]float64, n)
	sign := func() float64 { return float64(2*rng.Intn(2) - 1) }
	for i := range v {
		switch pattern % selectPatterns {
		case 0: // continuous, a handful of binades
			v[i] = rng.Normal()
		case 1: // every magnitude equal: the descent runs to the last digit
			v[i] = 0.75 * sign()
		case 2: // two magnitudes
			v[i] = float64(1+rng.Intn(2)) * sign()
		case 3: // mass at zero, signed zeros included
			if rng.Intn(10) > 0 {
				v[i] = math.Copysign(0, sign())
			} else {
				v[i] = rng.Normal()
			}
		case 4: // denormals only
			v[i] = math.Float64frombits(uint64(rng.Intn(1<<20))) * sign()
		case 5: // infinities among finite values
			if rng.Intn(8) == 0 {
				v[i] = math.Inf(int(sign()))
			} else {
				v[i] = rng.Normal()
			}
		case 6: // every binade there is
			v[i] = math.Float64frombits(uint64(rng.Intn(2047))<<52|uint64(rng.Intn(1<<30))<<22) * sign()
		case 7: // one binade, keys differing in the lowest digits only
			v[i] = math.Float64frombits(math.Float64bits(1.5)+uint64(rng.Intn(300))) * sign()
		case 8: // a few exact ties inside a continuous bulk
			if rng.Intn(4) == 0 {
				v[i] = 1.25 * sign()
			} else {
				v[i] = rng.Normal()
			}
		case 9: // NaN (two payloads) next to everything else
			switch rng.Intn(6) {
			case 0:
				v[i] = math.NaN()
			case 1:
				v[i] = math.Float64frombits(0xFFF8000000000001)
			case 2:
				v[i] = math.Inf(1)
			default:
				v[i] = rng.Normal()
			}
		}
	}
	return v
}

// TestSelectMatchesReferenceAtWireScale is the differential test of the
// threshold selector against the sort-based reference at the sizes real
// gradients have, over every vector family and the K values that sit on the
// selector's edges (one, the default p/16, all but one, all, more than all).
func TestSelectMatchesReferenceAtWireScale(t *testing.T) {
	rng := rngutil.New(9)
	for _, n := range []int{1, 2, 63, 64, 65, 1000, 4096, 1 << 15} {
		for pattern := 0; pattern < selectPatterns; pattern++ {
			v := selectVector(rng, n, pattern)
			for _, k := range []int{1, (n + 15) / 16, n - 1, n, n + 3} {
				checkSelect(t, v, k)
			}
		}
	}
}

// TestSelectNaNAlwaysKept pins the NaN rule: NaN ranks above +Inf, so which
// coordinates survive does not depend on where the NaN sits (the old float
// comparison kept {NaN,1,2} -> NaN but {1,NaN,2} -> 2), and a poisoned
// gradient stays visible downstream instead of being zeroed.
func TestSelectNaNAlwaysKept(t *testing.T) {
	vals := []float64{math.NaN(), 1, -2, math.Inf(-1), 0}
	wantOrder := []float64{math.NaN(), math.Inf(-1), -2, 1, 0} // by rank
	var permute func(int)
	permute = func(i int) {
		if i == len(vals) {
			for k := 1; k <= len(vals); k++ {
				coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: k})
				var got []uint64
				for _, idx := range coder.Select(vals) {
					got = append(got, math.Float64bits(vals[idx]))
				}
				var want []uint64
				for _, x := range wantOrder[:k] {
					want = append(want, math.Float64bits(x))
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("v=%v k=%d: kept values %x, want %x", vals, k, got, want)
				}
				checkSelect(t, vals, k)
			}
			return
		}
		for j := i; j < len(vals); j++ {
			vals[i], vals[j] = vals[j], vals[i]
			permute(i + 1)
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
	permute(0)
}

// TestSelectZeroAllocs: the selector's scratch is stack only, whatever the
// vector makes the descent do.
func TestSelectZeroAllocs(t *testing.T) {
	rng := rngutil.New(10)
	for pattern := 0; pattern < selectPatterns; pattern++ {
		v := selectVector(rng, 4096, pattern)
		coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: 256})
		coder.Select(v) // sizes the index scratch
		if a := testing.AllocsPerRun(10, func() { coder.Select(v) }); a != 0 {
			t.Fatalf("pattern %d: Select allocates %v objects per call", pattern, a)
		}
	}
}

// TestSelectKeepsKLargest is the top-k correctness property: against random
// vectors of many shapes, Select must keep exactly the K
// largest-magnitude coordinates, with ties broken toward the lower index,
// and return them in ascending index order.
func TestSelectKeepsKLargest(t *testing.T) {
	rng := rngutil.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		k := rng.Intn(n + 2) // occasionally k > n
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(4) {
			case 0:
				v[i] = 0 // mass ties at zero
			case 1:
				v[i] = float64(rng.Intn(3)) - 1 // ties at ±1
			default:
				v[i] = rng.Normal()
			}
		}
		coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: k})
		got := coder.Select(v)
		want := refSelect(v, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): kept %d indices, want %d\nv=%v", trial, n, k, len(got), len(want), v)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): kept %v, want %v\nv=%v", trial, n, k, got, want, v)
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("trial %d: indices not strictly ascending: %v", trial, got)
			}
		}
	}
}

// TestSelectTieBreakDeterministic pins the tie rule on hand-built vectors:
// equal magnitudes keep the LOWER index, signs are irrelevant.
func TestSelectTieBreakDeterministic(t *testing.T) {
	cases := []struct {
		v    []float64
		k    int
		want []int32
	}{
		{[]float64{1, -1, 1, 1}, 2, []int32{0, 1}},
		{[]float64{2, -1, 1, -2}, 2, []int32{0, 3}},
		{[]float64{0, 0, 0}, 2, []int32{0, 1}},
		{[]float64{-3, 5, 3}, 2, []int32{0, 1}}, // |−3| ties |3| → index 0
		{[]float64{1, 2, 3}, 0, []int32{}},
		{[]float64{1, 2}, 5, []int32{0, 1}}, // k > n keeps everything
	}
	for ci, tc := range cases {
		coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: tc.k})
		got := coder.Select(tc.v)
		if len(got) != len(tc.want) {
			t.Fatalf("case %d: kept %v, want %v", ci, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("case %d: kept %v, want %v", ci, got, tc.want)
			}
		}
	}
}

// TestF32RoundTripULPBound bounds the f32 quantization error: for values in
// float32's normal range the round trip is correct to half a ULP, i.e. a
// relative error of at most 2^-24.
func TestF32RoundTripULPBound(t *testing.T) {
	rng := rngutil.New(8)
	const relBound = 1.0 / (1 << 24)
	check := func(x float64) {
		t.Helper()
		q := float64(float32(x))
		if x == 0 {
			if q != 0 {
				t.Fatalf("0 quantized to %v", q)
			}
			return
		}
		if rel := math.Abs(q-x) / math.Abs(x); rel > relBound {
			t.Fatalf("f32(%v) = %v: relative error %v exceeds 2^-24", x, q, rel)
		}
	}
	for i := 0; i < 1000; i++ {
		check(rng.Normal() * math.Pow(10, float64(rng.Intn(20)-10)))
	}
	for _, x := range []float64{1.0 / 3, math.Pi, 1e30, -1e-30, math.MaxFloat32 / 2} {
		check(x)
	}
	// QuantizeF32 must implement exactly that rounding, elementwise, and be
	// idempotent (the fixed point is float32-representable values).
	v := []float64{1.0 / 3, -math.Pi, 0, 1e20}
	q := append([]float64(nil), v...)
	QuantizeF32(q)
	for i := range v {
		if q[i] != float64(float32(v[i])) {
			t.Fatalf("QuantizeF32[%d] = %v, want %v", i, q[i], float64(float32(v[i])))
		}
	}
	again := append([]float64(nil), q...)
	QuantizeF32(again)
	for i := range q {
		if math.Float64bits(again[i]) != math.Float64bits(q[i]) {
			t.Fatalf("QuantizeF32 not idempotent at %d: %v -> %v", i, q[i], again[i])
		}
	}
}

// TestVecBytes pins the modelled per-vector byte widths the latency scaling
// and Bytes accounting are built on.
func TestVecBytes(t *testing.T) {
	if got := (PayloadConfig{}).VecBytes(100); got != 800 {
		t.Fatalf("raw64 VecBytes(100) = %d", got)
	}
	if got := (PayloadConfig{Codec: PayloadF32}).VecBytes(100); got != 400 {
		t.Fatalf("f32 VecBytes(100) = %d", got)
	}
	if got := (PayloadConfig{Codec: PayloadTopK, TopK: 7}).VecBytes(100); got != 56 {
		t.Fatalf("topk VecBytes(100) = %d", got)
	}
	// effK clamps to the vector length.
	if got := (PayloadConfig{Codec: PayloadTopK, TopK: 7}).VecBytes(3); got != 24 {
		t.Fatalf("topk VecBytes(3) = %d", got)
	}
}

// TestApplyReplyTransforms pins the canonical in-process transform the
// non-serializing runtimes apply: f32 quantization, top-k sparsify with kept
// values quantized, nil tolerated.
func TestApplyReplyTransforms(t *testing.T) {
	f32 := NewVecCoder(PayloadConfig{Codec: PayloadF32})
	v := []float64{1.0 / 3, -math.Pi}
	f32.ApplyReply(v)
	if v[0] != float64(float32(1.0/3)) || v[1] != float64(float32(-math.Pi)) {
		t.Fatalf("f32 ApplyReply = %v", v)
	}
	f32.ApplyReply(nil) // must not panic

	topk := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: 2})
	w := []float64{0.1, -5, 0.3, 4}
	topk.ApplyReply(w)
	want := []float64{0, float64(float32(-5.0)), 0, float64(float32(4.0))}
	for i := range want {
		if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
			t.Fatalf("topk ApplyReply = %v, want %v", w, want)
		}
	}
	topk.ApplyReply(nil)

	raw := NewVecCoder(PayloadConfig{})
	u := []float64{1.0 / 3}
	raw.ApplyReply(u)
	if u[0] != 1.0/3 {
		t.Fatalf("raw64 ApplyReply mutated the vector: %v", u)
	}

	// ApplyQuery quantizes under f32 only; topk ships queries dense.
	q1 := []float64{1.0 / 3}
	f32.ApplyQuery(q1)
	if q1[0] != float64(float32(1.0/3)) {
		t.Fatalf("f32 ApplyQuery = %v", q1)
	}
	q2 := []float64{1.0 / 3}
	topk.ApplyQuery(q2)
	if q2[0] != 1.0/3 {
		t.Fatalf("topk ApplyQuery mutated the query: %v", q2)
	}
}

// writeReplyBytes serializes one reply under the given payload config and
// returns the raw frame bytes.
func writeReplyBytes(t *testing.T, pc PayloadConfig, rep Reply) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetPayload(pc)
	if err := w.WriteReply(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChunkSizeNeverChangesBytes pins the framing contract behind the
// negotiated chunk size: chunking is staging only, so the byte stream is
// identical for every chunk size, for every codec — and a reader configured
// with a DIFFERENT chunk size still decodes it exactly.
func TestChunkSizeNeverChangesBytes(t *testing.T) {
	rng := rngutil.New(9)
	vec := make([]float64, 777) // not a multiple of any tested chunk
	for i := range vec {
		vec[i] = rng.Normal()
	}
	rep := Reply{Iter: 3, Worker: 1, Compute: 0.5, Msgs: []Msg{{From: 1, Tag: 2, Units: 1, Vec: vec}}}
	for _, codec := range []PayloadCodec{PayloadRaw64, PayloadF32, PayloadTopK} {
		ref := writeReplyBytes(t, PayloadConfig{Codec: codec, TopK: 48, Chunk: 0}, rep)
		for _, chunk := range []int{1, 7, 776, 777, 778, 1 << 15} {
			got := writeReplyBytes(t, PayloadConfig{Codec: codec, TopK: 48, Chunk: chunk}, rep)
			if !bytes.Equal(got, ref) {
				t.Fatalf("codec %v chunk %d: byte stream differs from default-chunk stream", codec, chunk)
			}
			// Cross-chunk read: reader staged at another granularity.
			r := NewReader(bytes.NewReader(got))
			r.SetPayload(PayloadConfig{Codec: codec, TopK: 48, Chunk: 1 + chunk%5})
			if k, err := r.NextKind(); err != nil || k != KindReply {
				t.Fatalf("codec %v chunk %d: NextKind = %v, %v", codec, chunk, k, err)
			}
			var dec Reply
			if err := r.ReadReplyInto(&dec, nil); err != nil {
				t.Fatalf("codec %v chunk %d: read: %v", codec, chunk, err)
			}
			// Decoded values must equal the canonical in-process transform.
			want := append([]float64(nil), vec...)
			NewVecCoder(PayloadConfig{Codec: codec, TopK: 48}).ApplyReply(want)
			checkVecEqual(t, 0, "vec", dec.Msgs[0].Vec, want)
		}
	}
}

// TestTopKDecodeRejectsMalformed pins the reader's top-k validation: indices
// out of order, repeated, out of range, or a count above the vector length
// must fail cleanly instead of scattering wild.
func TestTopKDecodeRejectsMalformed(t *testing.T) {
	pc := PayloadConfig{Codec: PayloadTopK, TopK: 2}
	base := writeReplyBytes(t, pc, Reply{Msgs: []Msg{{Units: 1, Vec: []float64{1, 2, 3, 4}}}})
	// Locate the vec body: frame is kind(1) iter(8) worker(4) compute(8)
	// nmsgs(4) from(4) tag(8) units(8) len(4) k(4) pairs...
	const pairOff = 1 + 8 + 4 + 8 + 4 + 4 + 8 + 8 + 4 + 4
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), base...)
		mutate(b)
		r := NewReader(bytes.NewReader(b))
		r.SetPayload(pc)
		if _, err := r.NextKind(); err != nil {
			return err
		}
		var rep Reply
		return r.ReadReplyInto(&rep, nil)
	}
	if err := corrupt(func(b []byte) {}); err != nil {
		t.Fatalf("unmutated frame rejected: %v", err)
	}
	// Duplicate index: second pair's index = first pair's index.
	if err := corrupt(func(b []byte) { copy(b[pairOff+8:pairOff+12], b[pairOff:pairOff+4]) }); err == nil {
		t.Fatal("duplicate top-k index accepted")
	}
	// Out-of-range index.
	if err := corrupt(func(b []byte) { b[pairOff+8] = 200 }); err == nil {
		t.Fatal("out-of-range top-k index accepted")
	}
	// k larger than the vector length.
	if err := corrupt(func(b []byte) { b[pairOff-4] = 5 }); err == nil {
		t.Fatal("topk count above vector length accepted")
	}
}

// BenchmarkSelect is top-k selection at the dataplane-topk workload's shape;
// it must report 0 allocs/op (the selector's scratch is all stack).
func BenchmarkSelect(b *testing.B) {
	rng := rngutil.New(11)
	v := make([]float64, 16384)
	for i := range v {
		v[i] = rng.Normal()
	}
	coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: 1024})
	coder.Select(v) // sizes the index scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coder.Select(v)
	}
}
