// Package coding implements the gradient-coding schemes the paper proposes
// and compares against, behind a single Scheme/Plan/Decoder abstraction:
//
//   - bcc        — Batched Coupon's Collector (the paper's contribution, §III)
//   - uncoded    — disjoint partition, wait for every worker (§III-C baseline)
//   - randomized — per-example uniform sampling, unit messages (§I eqs. 5-6)
//   - cyclicrep  — Cyclic Repetition gradient coding [Tandon et al. 2016]
//   - fractional — Fractional Repetition gradient coding [Tandon et al. 2016]
//   - cyclicmds  — cyclic-MDS / Reed-Solomon style coding [Raviv et al.;
//     Halbawi et al.]
//
// Terminology follows the paper: there are m "examples" (units of work —
// each may wrap many raw data points), n workers, and a computational load
// of r examples per worker. A Plan fixes the data placement and code; its
// Decoder consumes worker Messages until the exact sum of all m per-example
// partial gradients can be recovered.
package coding

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// Message is the payload one worker ships to the master in one iteration.
// A worker may emit several Messages per iteration (the randomized scheme
// sends one per example).
type Message struct {
	From int // worker index
	Tag  int // scheme-specific id (batch/block/example); -1 when unused
	// Vec is the real payload, sized like one partial gradient.
	Vec []float64
	// Imag carries the imaginary part for complex-coded schemes; nil
	// otherwise.
	Imag []float64
	// Units is the communication load this message accounts for, in
	// multiples of a single partial gradient (Definition 3 of the paper).
	Units float64
}

// Buffers supplies reusable payload buffers to EncodeInto so steady-state
// encoding performs no heap allocations. Buf returns a length-n buffer with
// ARBITRARY contents — encoders overwrite every element before the buffer
// leaves them inside a Message. Implementations decide the recycling policy
// (internal/cluster's BufferPool recycles gradient-sized buffers after the
// master finishes each iteration); a nil Buffers means "allocate fresh".
type Buffers interface {
	Buf(n int) []float64
}

// Plan is a concrete placement + code for (m, n, r). Plans are safe for
// concurrent use by multiple decoders (any internal decode caches are
// synchronized); per-iteration mutable state lives in the Decoder, which is
// reusable across iterations via Reset.
type Plan interface {
	// Scheme returns the scheme name this plan was built by.
	Scheme() string
	// Params returns the (m, n, r) the plan was built for.
	Params() (m, n, r int)
	// Assignments returns, per worker, the example ids it processes. The
	// returned slices must not be mutated.
	Assignments() [][]int
	// EncodeInto turns a worker's partial gradients (parts[k] is the
	// gradient of Assignments()[worker][k]) into the messages it transmits,
	// appending them to dst and returning the extended slice. Message
	// payloads are drawn from bufs (nil = fresh allocations) and never alias
	// parts, so callers may reuse the parts scratch immediately.
	EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message
	// NewDecoder returns decoding state sized for this plan. One decoder
	// serves many iterations: call Reset between them.
	NewDecoder() Decoder
	// WorstCaseThreshold returns the number of workers that is ALWAYS
	// sufficient to decode regardless of which workers respond, or -1 if no
	// such deterministic guarantee exists (randomized placements).
	WorstCaseThreshold() int
	// ExpectedThreshold returns the analytic expected number of workers the
	// master waits for under a uniformly random response order, or NaN if
	// unknown analytically.
	ExpectedThreshold() float64
	// CommLoadPerWorker returns the communication load (in units) of one
	// worker's full transmission.
	CommLoadPerWorker() float64
}

// Decoder accumulates messages for one iteration until the total gradient
// sum can be reconstructed. Decoders borrow the payload buffers of offered
// Messages until Reset is called (or DecodeInto returns, after which they
// are only read again if DecodeInto is re-invoked); buffer owners must not
// recycle a message's payload before the iteration's decode is finished.
type Decoder interface {
	// Offer feeds one message and reports whether the decoder is now able to
	// decode. Offering after decodability is allowed and ignored.
	Offer(msg Message) bool
	// Decodable reports whether DecodeInto will succeed.
	Decodable() bool
	// DecodeInto reconstructs sum_{j=1..m} g_j into dst (sized like one
	// partial gradient), fully overwriting it. It returns ErrNotDecodable —
	// leaving dst unspecified — if called early.
	DecodeInto(dst []float64) error
	// WorkersHeard returns the number of distinct workers whose messages
	// arrived before (and including) the decodable point — the realized
	// recovery threshold |W| of Definition 2.
	WorkersHeard() int
	// UnitsReceived returns the accumulated communication load counted
	// toward decoding (Definition 3).
	UnitsReceived() float64
	// Reset returns the decoder to its fresh state, dropping every reference
	// to offered message buffers, so one decoder (and its internal storage)
	// is reused across iterations.
	Reset()
}

// minResponders is the optional Plan capability behind MinResponders, for
// schemes whose impossibility bound is sharper (or looser) than the generic
// coverage argument.
type minResponders interface {
	MinResponders() int
}

// MinResponders returns the minimum size any decodable responder set can
// have for this plan: with fewer responding workers decoding is impossible
// REGARDLESS of which workers respond. It is the converse counterpart of
// WorstCaseThreshold (which workers are always sufficient) and is what the
// cluster engine uses to degrade explicitly when fault injection leaves too
// few reachable workers.
//
// Plans may implement MinResponders() int to supply an exact bound (uncoded
// and partitioned need every data holder; MDS codes need exactly their
// threshold; approximate BCC needs only its coverage target). The default
// is the coverage argument: every worker contributes at most
// max_w |Assignments()[w]| of the m examples, so fewer than
// ceil(m / maxAssign) workers cannot cover — hence cannot reconstruct — the
// full gradient. The bound is conservative: sets at or above it may still
// be undecodable (the stall path catches those), but sets below it never
// decode.
func MinResponders(p Plan) int {
	if mr, ok := p.(minResponders); ok {
		return mr.MinResponders()
	}
	m, _, _ := p.Params()
	maxAssign := 0
	for _, a := range p.Assignments() {
		if len(a) > maxAssign {
			maxAssign = len(a)
		}
	}
	if maxAssign == 0 {
		return 0
	}
	return (m + maxAssign - 1) / maxAssign
}

// Encode is the convenience form of Plan.EncodeInto for callers without
// buffer reuse (experiments, tests): fresh message and payload allocations.
func Encode(p Plan, worker int, parts [][]float64) []Message {
	return p.EncodeInto(nil, worker, parts, nil)
}

// Decode is the convenience form of Decoder.DecodeInto: it allocates the
// dim-sized output. dim must equal the payload dimension of the offered
// messages.
func Decode(d Decoder, dim int) ([]float64, error) {
	out := make([]float64, dim)
	if err := d.DecodeInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Scheme builds Plans for given problem sizes.
type Scheme interface {
	// Name returns the registry name.
	Name() string
	// Plan builds a placement and code for m examples, n workers and
	// computational load r, drawing any randomness from rng.
	Plan(m, n, r int, rng *rngutil.RNG) (Plan, error)
}

// ErrNotDecodable is returned by Decode before enough messages arrived.
var ErrNotDecodable = errors.New("coding: not yet decodable")

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

var registry = map[string]Scheme{}

// Register adds a scheme to the global registry; it panics on duplicates.
// All built-in schemes self-register in their init functions.
func Register(s Scheme) {
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("coding: duplicate scheme %q", s.Name()))
	}
	registry[s.Name()] = s
}

// Lookup returns the named scheme.
func Lookup(name string) (Scheme, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("coding: unknown scheme %q (have %v)", name, Names())
	}
	return s, nil
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// validate checks the common (m, n, r) constraints.
func validate(scheme string, m, n, r int) error {
	if m <= 0 || n <= 0 || r <= 0 {
		return fmt.Errorf("coding/%s: need positive m, n, r; got m=%d n=%d r=%d", scheme, m, n, r)
	}
	if r > m {
		return fmt.Errorf("coding/%s: computational load r=%d exceeds m=%d examples", scheme, r, m)
	}
	return nil
}

// coverageFeasible reports whether the union of the assignments covers every
// example in [0, m).
func coverageFeasible(m int, assign [][]int) bool {
	seen := make([]bool, m)
	covered := 0
	for _, a := range assign {
		for _, u := range a {
			if !seen[u] {
				seen[u] = true
				covered++
			}
		}
	}
	return covered == m
}

// checkParts validates the Encode input arity for worker w.
func checkParts(scheme string, assign [][]int, w int, parts [][]float64) {
	if w < 0 || w >= len(assign) {
		panic(fmt.Sprintf("coding/%s: worker %d out of range [0,%d)", scheme, w, len(assign)))
	}
	if len(parts) != len(assign[w]) {
		panic(fmt.Sprintf("coding/%s: worker %d got %d partial gradients for %d assigned examples",
			scheme, w, len(parts), len(assign[w])))
	}
}

// grabBuf draws a length-n payload buffer from bufs, falling back to a fresh
// allocation when bufs is nil or returns a wrongly-sized buffer. Contents
// are arbitrary; the encoder must overwrite every element.
func grabBuf(bufs Buffers, n int) []float64 {
	if bufs != nil {
		if b := bufs.Buf(n); len(b) == n {
			return b
		}
	}
	return make([]float64, n)
}

// workerMask tracks the distinct workers heard from, allocation-free per
// Offer (the map-based bookkeeping it replaces allocated on insert).
type workerMask struct {
	seen  []bool
	count int
}

func newWorkerMask(n int) workerMask { return workerMask{seen: make([]bool, n)} }

// hear marks worker w heard and reports whether it was new. Out-of-range
// senders (defensive: a corrupted or malicious frame can carry any index)
// are ignored rather than tracked — growing the mask to the claimed index
// would let one bad frame force an arbitrarily large allocation, which the
// map this replaced never did.
func (m *workerMask) hear(w int) bool {
	if w < 0 || w >= len(m.seen) || m.seen[w] {
		return false
	}
	m.seen[w] = true
	m.count++
	return true
}

func (m *workerMask) reset() {
	for i := range m.seen {
		m.seen[i] = false
	}
	m.count = 0
}

// ---------------------------------------------------------------------------
// Plan-level decode-coefficient cache
// ---------------------------------------------------------------------------

// solveCacheLimit bounds a plan's decode-coefficient cache. Stable
// responder sets (the steady state of a run with deterministic latencies or
// persistent stragglers) need a handful of entries; fully random arrival
// sets could otherwise grow the cache without bound over long runs, so a
// full cache is cleared wholesale — cheap, and the recurring sets repopulate
// it immediately — instead of pinning whatever happened to arrive first.
const solveCacheLimit = 128

// solveCache memoizes decode coefficient solves keyed by the SET of
// responding workers (sorted ids), with coefficients stored indexed by
// worker id, so a linear system solved for one iteration's responder set is
// never solved again — no matter in which order the same set arrives in
// later iterations. It is owned by the Plan (one cache per plan) and
// synchronized, which is what makes a Plan safe for concurrent decoders.
// Failed solves (degenerate subsets below the effective threshold) are
// cached too, so they are not retried every iteration either.
type solveCache[T any] struct {
	mu      sync.RWMutex
	entries map[string]solveEntry[T]
	solves  int // linear solves actually performed (cache misses)
}

type solveEntry[T any] struct {
	// byWorker[w] is worker w's decode coefficient (meaningful only for the
	// workers in the key's set); nil records a failed solve.
	byWorker T
	ok       bool
}

// get returns the cached solve outcome for the responder-set key, if any.
func (c *solveCache[T]) get(key []byte) (T, bool, bool) {
	c.mu.RLock()
	e, hit := c.entries[string(key)] // no alloc: map lookup by []byte conversion
	c.mu.RUnlock()
	return e.byWorker, e.ok, hit
}

// put records a solve outcome, clearing the cache first if it is full.
func (c *solveCache[T]) put(key []byte, byWorker T, ok bool) {
	c.mu.Lock()
	if c.entries == nil || len(c.entries) >= solveCacheLimit {
		c.entries = make(map[string]solveEntry[T], 8)
	}
	c.solves++
	c.entries[string(key)] = solveEntry[T]{byWorker: byWorker, ok: ok}
	c.mu.Unlock()
}

// solveCount returns how many linear solves were performed (for tests).
func (c *solveCache[T]) solveCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.solves
}

// setKey encodes the responder set as a cache key: workers are copied into
// the sorted scratch, sorted in place, and serialized. Both scratch slices
// are the decoder's, reused across iterations. The returned key aliases
// keyBuf.
func setKey(workers []int, sortBuf []int, keyBuf []byte) ([]int, []byte) {
	sortBuf = append(sortBuf[:0], workers...)
	sort.Ints(sortBuf)
	keyBuf = keyBuf[:0]
	for _, w := range sortBuf {
		keyBuf = append(keyBuf, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return sortBuf, keyBuf
}

// sumSparseInto folds the non-nil vectors of vs into dst in slot order,
// fully overwriting dst (the in-place form of the "clone first, add rest"
// fold the decoders previously allocated). It panics if every slot is nil.
func sumSparseInto(dst []float64, vs [][]float64) {
	first := true
	for _, v := range vs {
		if v == nil {
			continue
		}
		if first {
			copy(dst, v)
			first = false
		} else {
			vecmath.AddInto(dst, v)
		}
	}
	if first {
		panic("coding: decode with no kept vectors")
	}
}

// sumSparseSliceInto folds elements [lo, hi) of the non-nil vectors of vs
// into dst[lo:hi] in slot order — the slice form of sumSparseInto. Each
// element folds its terms in the same order as the full fold, so any
// partition of [0, len(dst)) reproduces sumSparseInto bit-for-bit. It panics
// if every slot is nil.
func sumSparseSliceInto(dst []float64, vs [][]float64, lo, hi int) {
	first := true
	for _, v := range vs {
		if v == nil {
			continue
		}
		if first {
			copy(dst[lo:hi], v[lo:hi])
			first = false
			continue
		}
		for t := lo; t < hi; t++ {
			dst[t] += v[t]
		}
	}
	if first {
		panic("coding: decode with no kept vectors")
	}
}

// SliceDecoder is the optional Decoder capability behind streaming decode
// and the sharded master: a decoder whose output elements are independent
// can reconstruct an arbitrary output slice [lo, hi) on its own. Each slice
// folds its terms in the serial order, so any partition of [0, p) — the
// engine's MasterShards goroutines, or the comm plane's wire chunks as they
// arrive — reproduces DecodeInto bit-for-bit.
type SliceDecoder interface {
	Decoder
	// DecodeSliceInto reconstructs output elements [lo, hi) of the decoded
	// gradient into dst[lo:hi], leaving the rest of dst untouched. It
	// requires Decodable() and 0 <= lo <= hi <= len(dst); dst must be sized
	// like a full decode destination.
	DecodeSliceInto(dst []float64, lo, hi int) error
}

// checkDecodeSlice validates DecodeSliceInto bounds.
func checkDecodeSlice(dst []float64, lo, hi int) error {
	if lo < 0 || hi > len(dst) || lo > hi {
		return fmt.Errorf("coding: decode slice [%d, %d) out of range for %d-dim output", lo, hi, len(dst))
	}
	return nil
}

// ParallelDecoder was the capability behind a per-decoder goroutine fan-out.
//
// Deprecated: no decoder implements it; the master splits decode work across
// cores only through MasterShards and SliceDecoder. The declaration remains
// for the benchmark harness's decoder wrapper and will be removed with it.
type ParallelDecoder interface {
	Decoder
	SetDecodeParallelism(workers int)
}
