package coding

import (
	"fmt"
	"sync/atomic"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// Nested is the adaptive nested gradient-code family (Maßny et al., "Nested
// Gradient Codes for Straggler Mitigation"): a sequence of cyclic gradient
// codes at redundancy levels L = 1..r over ONE shared cyclic data placement,
// so the master can re-tune the effective redundancy between iterations
// without moving data. Level L is a full cyclic-repetition code on the first
// L examples of every worker's window — it tolerates any s = L-1 stragglers
// (deterministic threshold n-L+1) at a computational load of L examples per
// worker. Because the per-worker windows are prefix-nested
// (level-L assignment = first L entries of the level-r assignment), lowering
// the level only shrinks how much of its resident data a worker processes.
//
// The plan implements the Retunable capability: SetLevel swaps the active
// encode matrix and decoder threshold atomically; encode/decode stay
// EncodeInto/DecodeInto/DecodeSliceInto-conformant at every level, so the
// zero-alloc steady state carries over unchanged. Callers
// that re-tune must encode with the ACTIVE level's assignment (a prefix of
// Assignments()); AtLevel exposes each level as an immutable fixed Plan for
// processes that pin the level per message (remote workers).
type Nested struct {
	// MaxRetries bounds how many H draws are attempted per level when a draw
	// is degenerate (probability-zero event; default 50).
	MaxRetries int
}

func init() { Register(Nested{}) }

// Name implements Scheme.
func (Nested) Name() string { return "nested" }

// Plan implements Scheme: r is the MAXIMUM redundancy level (the data
// placement's window width); the family contains levels 1..r. Construction
// draws the per-level coding matrices in ascending level order from rng, so
// every process seeding the same rng builds bit-identical families.
func (c Nested) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("nested", m, n, r); err != nil {
		return nil, err
	}
	if m != n {
		return nil, fmt.Errorf("coding/nested: requires m == n (group examples first); got m=%d n=%d", m, n)
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/nested: nil rng (construction is randomized)")
	}
	maxRetries := c.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 50
	}
	// The shared placement: worker w holds the cyclic window of its r
	// examples; level L uses the length-L prefix.
	assign := make([][]int, n)
	for w := 0; w < n; w++ {
		ids := make([]int, r)
		for k := 0; k < r; k++ {
			ids[k] = (w + k) % n
		}
		assign[w] = ids
	}
	levels := make([]*codedPlan, r)
	for L := 1; L <= r; L++ {
		s := L - 1
		var b *vecmath.Matrix
		var err error
		for try := 0; try < maxRetries; try++ {
			b, err = buildCyclicRepB(n, s, rng)
			if err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("coding/nested: level %d construction failed after %d tries: %w", L, maxRetries, err)
		}
		sub := make([][]int, n)
		for w := 0; w < n; w++ {
			sub[w] = assign[w][:L]
		}
		levels[L-1] = newCodedPlan("nested", m, n, L, s, b, sub)
	}
	p := &nestedPlan{m: m, n: n, r: r, assign: assign, levels: levels}
	p.level.Store(int32(r))
	return p, nil
}

// Retunable is the optional Plan capability of nested code families: the
// active redundancy level can be swapped between iterations. Levels are
// 1-based computational loads; level L's decoder threshold is the level
// plan's WorstCaseThreshold. Implementations must keep every level's
// assignment a prefix of Assignments() so callers can derive the active
// workload by slicing, and must make SetLevel safe for concurrent readers
// (encode on one goroutine, Level on another).
type Retunable interface {
	Plan
	// MinLevel and MaxLevel bound the family (inclusive).
	MinLevel() int
	MaxLevel() int
	// Level returns the active level.
	Level() int
	// SetLevel activates level L for subsequent EncodeInto/NewDecoder
	// threshold decisions. Out-of-range levels are an error.
	SetLevel(L int) error
	// AtLevel returns level L as an immutable fixed Plan (its Assignments
	// are the length-L prefix of the family's), for callers that must pin a
	// level independent of the family's active one.
	AtLevel(L int) (Plan, error)
}

// nestedPlan is the Retunable family: one immutable codedPlan per level plus
// an atomic active-level index. All per-level state (coding matrices, encode
// coefficients, solve caches) is built at construction; SetLevel is a single
// atomic store.
type nestedPlan struct {
	m, n, r int
	assign  [][]int      // the shared placement: level r windows
	levels  []*codedPlan // levels[L-1] is level L
	level   atomic.Int32
}

func (p *nestedPlan) active() *codedPlan { return p.levels[p.level.Load()-1] }

func (p *nestedPlan) Scheme() string          { return "nested" }
func (p *nestedPlan) Params() (int, int, int) { return p.m, p.n, p.r }

// Assignments returns the shared data placement (the max-level windows).
// The ACTIVE workload is the length-Level() prefix of each worker's slice.
func (p *nestedPlan) Assignments() [][]int { return p.assign }

// EncodeInto implements Plan for the active level: parts must match the
// active level's assignment (the length-Level() prefix).
func (p *nestedPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	return p.active().EncodeInto(dst, worker, parts, bufs)
}

// Messages implements Plan for the active level.
func (p *nestedPlan) Messages(worker int) int { return p.active().Messages(worker) }

// WorstCaseThreshold returns the ACTIVE level's deterministic threshold
// n - Level() + 1.
func (p *nestedPlan) WorstCaseThreshold() int { return p.active().WorstCaseThreshold() }

// ExpectedThreshold returns the active level's (deterministic) threshold.
func (p *nestedPlan) ExpectedThreshold() float64 { return p.active().ExpectedThreshold() }

func (p *nestedPlan) CommLoadPerWorker() float64 { return 1 }

// MinResponders implements the minResponders capability for the FAMILY:
// the master can always raise the level to MaxLevel, whose threshold
// n - MaxLevel + 1 is the fewest responders any level can decode from.
// Fewer reachable workers than that defeat every level, so the engine's
// explicit-degrade check keys off the family bound, not the active level's.
func (p *nestedPlan) MinResponders() int { return p.n - p.r + 1 }

// MinLevel implements Retunable.
func (p *nestedPlan) MinLevel() int { return 1 }

// MaxLevel implements Retunable.
func (p *nestedPlan) MaxLevel() int { return p.r }

// Level implements Retunable.
func (p *nestedPlan) Level() int { return int(p.level.Load()) }

// SetLevel implements Retunable.
func (p *nestedPlan) SetLevel(L int) error {
	if L < 1 || L > p.r {
		return fmt.Errorf("coding/nested: level %d out of range [1, %d]", L, p.r)
	}
	p.level.Store(int32(L))
	return nil
}

// AtLevel implements Retunable.
func (p *nestedPlan) AtLevel(L int) (Plan, error) {
	if L < 1 || L > p.r {
		return nil, fmt.Errorf("coding/nested: level %d out of range [1, %d]", L, p.r)
	}
	return p.levels[L-1], nil
}

// NewDecoder implements Plan. The decoder holds one per-level codedDecoder
// and snapshots the family's active level on Reset — the engine resets the
// decoder after the controller runs and the iteration's model goes out, so
// an iteration decodes entirely at the level its workers encoded with.
func (p *nestedPlan) NewDecoder() Decoder {
	decs := make([]*codedDecoder, len(p.levels))
	for i, lp := range p.levels {
		decs[i] = lp.NewDecoder().(*codedDecoder)
	}
	return &nestedDecoder{plan: p, decs: decs, active: decs[p.Level()-1]}
}

// nestedDecoder delegates one iteration's decode to the level snapshotted at
// the last Reset, forwarding the SliceDecoder capability across level
// switches.
type nestedDecoder struct {
	plan   *nestedPlan
	decs   []*codedDecoder
	active *codedDecoder
}

func (d *nestedDecoder) Offer(msg Message) bool { return d.active.Offer(msg) }
func (d *nestedDecoder) Decodable() bool        { return d.active.Decodable() }
func (d *nestedDecoder) WorkersHeard() int      { return d.active.WorkersHeard() }
func (d *nestedDecoder) UnitsReceived() float64 { return d.active.UnitsReceived() }
func (d *nestedDecoder) DecodeInto(dst []float64) error {
	return d.active.DecodeInto(dst)
}

// DecodeSliceInto implements SliceDecoder.
func (d *nestedDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	return d.active.DecodeSliceInto(dst, lo, hi)
}

// Reset implements Decoder: drop buffer references and re-snapshot the
// active level for the next iteration.
func (d *nestedDecoder) Reset() {
	d.active.Reset()
	d.active = d.decs[d.plan.Level()-1]
}

var (
	_ Scheme        = Nested{}
	_ Retunable     = (*nestedPlan)(nil)
	_ minResponders = (*nestedPlan)(nil)
	_ SliceDecoder  = (*nestedDecoder)(nil)
)
