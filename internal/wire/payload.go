package wire

import (
	"fmt"
	"math"
	"slices"
)

// PayloadCodec selects how vector payloads are represented on the wire and,
// for the lossy codecs, the canonical in-process transform every runtime
// applies so results stay bit-identical whether or not bytes actually cross
// a socket.
//
// The three codecs:
//
//   - PayloadRaw64: today's format — dense little-endian float64 words,
//     bit-exact, the default.
//   - PayloadF32: dense float32 words. The canonical transform rounds each
//     element to float32 and widens back (float64(float32(v))), so a wire
//     round trip reproduces the in-process transform exactly.
//   - PayloadTopK: the K largest-|v| coordinates as sorted index+value
//     pairs (u32 index, f32 value); all other coordinates decode to zero.
//     Selection happens on the raw float64 magnitudes BEFORE float32
//     rounding, with ties broken toward the lower index, so every runtime
//     keeps the same set. Magnitudes are ranked by the bit pattern of |v|,
//     which is |v|'s own order made total: +0 and -0 tie, and a NaN ranks
//     above +Inf, so NaNs are kept first wherever they sit in the vector —
//     a poisoned gradient reaches GradNorm instead of being zeroed.
//
// Queries (model broadcasts) are only ever dense: PayloadF32 quantizes them,
// PayloadTopK leaves them raw64 (sparsifying the iterate would change the
// algorithm, not just the gradient message).
type PayloadCodec uint8

// Payload codecs, in wire-encoding order (the codec byte in the hello frame).
const (
	PayloadRaw64 PayloadCodec = iota
	PayloadF32
	PayloadTopK
)

// ParsePayloadCodec maps a codec name to its value. The empty string is
// PayloadRaw64 so zero-valued configs mean "uncompressed".
func ParsePayloadCodec(name string) (PayloadCodec, error) {
	switch name {
	case "", "raw64":
		return PayloadRaw64, nil
	case "f32":
		return PayloadF32, nil
	case "topk":
		return PayloadTopK, nil
	}
	return 0, fmt.Errorf("wire: unknown payload codec %q (known: %v)", name, PayloadCodecNames())
}

// PayloadCodecNames lists the recognized codec names.
func PayloadCodecNames() []string { return []string{"raw64", "f32", "topk"} }

func (c PayloadCodec) String() string {
	switch c {
	case PayloadRaw64:
		return "raw64"
	case PayloadF32:
		return "f32"
	case PayloadTopK:
		return "topk"
	}
	return fmt.Sprintf("PayloadCodec(%d)", uint8(c))
}

// DefaultChunk is the number of float64 elements staged per bulk read/write
// chunk (4 KiB at raw64 width): large enough to amortize the copy, small
// enough that per-codec scratch stays modest and a corrupt length prefix
// cannot force a huge transient buffer.
const DefaultChunk = 512

// maxChunk bounds configured chunk sizes so scratch buffers stay sane.
const maxChunk = 1 << 20

// PayloadConfig carries a codec plus its parameters. The zero value is
// raw64 with the default chunk size.
type PayloadConfig struct {
	Codec PayloadCodec
	TopK  int // coordinates kept per vector under PayloadTopK
	Chunk int // elements per framing chunk; <=0 means DefaultChunk
}

// ChunkElems returns the effective framing chunk size in elements — the
// configured Chunk normalized (<=0 becomes DefaultChunk, oversize clamped).
// Both ends of a connection must agree on it; handshake validation compares
// this normalized value so "default" and an explicit 512 match.
func (c PayloadConfig) ChunkElems() int { return c.chunkElems() }

// chunkElems returns the normalized chunk size in elements.
func (c PayloadConfig) chunkElems() int {
	if c.Chunk <= 0 {
		return DefaultChunk
	}
	if c.Chunk > maxChunk {
		return maxChunk
	}
	return c.Chunk
}

// effK is the effective number of kept coordinates for an n-element vector.
func (c PayloadConfig) effK(n int) int {
	k := c.TopK
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// VecBytes is the payload byte cost of an n-element vector under this codec,
// excluding framing prefixes — the same element-only accounting the cluster
// layer has always used for its modelled per-iteration byte counts.
func (c PayloadConfig) VecBytes(n int) int {
	switch c.Codec {
	case PayloadF32:
		return 4 * n
	case PayloadTopK:
		return 8 * c.effK(n) // u32 index + f32 value per kept coordinate
	}
	return 8 * n
}

// VecCoder applies a payload codec's canonical in-process transform. The
// simulator, which never serializes, runs payloads through a VecCoder so
// its results are bit-identical to a framed (live or tcp) run with the same
// codec. A VecCoder owns the reusable index buffer Select returns
// and is not safe for concurrent use; each goroutine that encodes needs its
// own.
type VecCoder struct {
	cfg PayloadConfig
	idx []int32 // Select's result buffer, K entries
}

// NewVecCoder returns a coder for cfg. A raw64 coder is a no-op.
func NewVecCoder(cfg PayloadConfig) *VecCoder { return &VecCoder{cfg: cfg} }

// ApplyQuery transforms a model query in place. Only PayloadF32 touches
// queries; PayloadTopK ships them dense.
func (c *VecCoder) ApplyQuery(v []float64) {
	if c != nil && c.cfg.Codec == PayloadF32 {
		QuantizeF32(v)
	}
}

// ApplyReply transforms a reply payload vector in place: quantize (f32),
// sparsify+quantize (topk), or nothing (raw64). Nil slices are fine.
func (c *VecCoder) ApplyReply(v []float64) {
	if c == nil || v == nil {
		return
	}
	switch c.cfg.Codec {
	case PayloadF32:
		QuantizeF32(v)
	case PayloadTopK:
		c.sparsify(v)
	}
}

// QuantizeF32 rounds every element to float32 precision in place. This is
// the canonical f32 transform: a wire round trip through float32 words
// decodes to exactly these values.
func QuantizeF32(v []float64) {
	for i, x := range v {
		v[i] = float64(float32(x))
	}
}

// sparsify keeps the K largest-|v| coordinates (ties → lower index),
// quantizes them to float32 precision, and zeroes the rest.
func (c *VecCoder) sparsify(v []float64) {
	k := c.cfg.effK(len(v))
	if k >= len(v) {
		QuantizeF32(v)
		return
	}
	if k == 0 {
		clear(v)
		return
	}
	t, ties := kthMagnitude(v, k)
	for i, x := range v {
		if keep(magBits(x), t, &ties) {
			v[i] = float64(float32(x))
		} else {
			v[i] = 0
		}
	}
}

// Select returns the indices of the K largest-|v| coordinates in ascending
// index order, breaking magnitude ties toward the lower index. The returned
// slice aliases the coder's scratch and is valid until the next call.
// Selection runs on the raw float64 magnitudes so it is independent of any
// later quantization.
//
// It costs O(len(v)) whatever K is: kthMagnitude finds the K-th largest
// magnitude, then one ascending scan takes every coordinate above that
// threshold and the first `ties` coordinates equal to it — which is the
// lower-index-wins rule, and leaves the indices already sorted.
func (c *VecCoder) Select(v []float64) []int32 {
	k := c.cfg.effK(len(v))
	if k == 0 {
		return c.idx[:0]
	}
	if cap(c.idx) < k {
		c.idx = make([]int32, k)
	}
	kept := c.idx[:k]
	t, ties := kthMagnitude(v, k)
	n := 0
	for i, x := range v {
		if keep(magBits(x), t, &ties) {
			kept[n] = int32(i)
			n++
		}
	}
	return kept
}

// keep reports whether a coordinate of magnitude key m, met in ascending
// index order, is among the top k given kthMagnitude's result: above the
// threshold t always, equal to it while the tie budget lasts.
func keep(m, t uint64, ties *int) bool {
	if m < t {
		return false
	}
	if m == t {
		if *ties == 0 {
			return false
		}
		*ties--
	}
	return true
}

// magBits is the bit pattern of |x|: the IEEE-754 encoding with the sign bit
// cleared. As an unsigned integer it orders finite values and infinities
// exactly as |x| does, +0 and -0 coincide, and every NaN lands above +Inf —
// so, unlike a float comparison, it is a total order.
func magBits(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

const (
	// radixBits is the digit width of kthMagnitude's descent: 2^11 uint32
	// counters are 8 KiB of stack, and the first digit is exactly the
	// exponent field, which spreads a gradient's coordinates over enough
	// counters that consecutive increments rarely wait on each other.
	radixBits = 11
	// maxCand is how many keys kthMagnitude finishes on directly instead of
	// histogramming another digit.
	maxCand = 64
)

// kthMagnitude returns the k-th largest magBits key of v (1 <= k <= len(v))
// and how many of the coordinates equal to it belong to the top k (>= 1).
//
// It is a most-significant-digit radix descent: histogram one digit of every
// key that still shares the threshold's known high bits, walk the counts
// from the top digit down to the bucket holding rank k, fix that digit,
// repeat on the next one. Each level is one read-only pass over v; the
// histogram and the short candidate list live on the stack, so selection
// allocates nothing and needs no scratch proportional to len(v) or K.
func kthMagnitude(v []float64, k int) (t uint64, ties int) {
	var hist [1 << radixBits]uint32
	var base uint64 // the threshold's bits at and above shift; zero below
	need := k       // rank of the threshold among the keys in [base, base+2^shift)
	for shift := uint(63); shift > 0; {
		lo := shift - min(radixBits, shift)
		size := uint64(1) << (shift - lo)
		clear(hist[:size])
		for _, x := range v {
			// Keys below base wrap around to a huge d, keys past the bucket
			// give d >= size: one compare rejects both. (lo < 64; the mask
			// only spares the compiler's oversized-shift guard.)
			if d := (magBits(x) - base) >> (lo & 63); d < size {
				hist[d]++
			}
		}
		d := size - 1
		for ; need > int(hist[d]); d-- {
			need -= int(hist[d])
		}
		base |= d << lo
		shift = lo
		if shift > 0 && hist[d] <= maxCand {
			return kthOfFew(v, base, 1<<shift, need)
		}
	}
	return base, need
}

// kthOfFew finishes kthMagnitude once at most maxCand keys are left in
// [base, base+width): collect them, sort them, read rank need off the top.
func kthOfFew(v []float64, base, width uint64, need int) (t uint64, ties int) {
	var cand [maxCand]uint64
	n := 0
	for _, x := range v {
		if m := magBits(x); m-base < width {
			cand[n] = m
			n++
		}
	}
	slices.Sort(cand[:n])
	t = cand[n-need]
	for i := n - need; i < n && cand[i] == t; i++ {
		ties++
	}
	return t, ties
}
