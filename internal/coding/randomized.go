package coding

import (
	"fmt"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
)

// Randomized is the "simple randomized scheme" of the paper's introduction
// (eqs. 5-6): every worker independently selects r of the m examples
// uniformly at random (without replacement) and ships each computed partial
// gradient INDIVIDUALLY to the master. The master keeps the first copy of
// each example's gradient and finishes once all m are covered.
//
// Like BCC it reaches the minimum recovery threshold up to a log factor
// (K ~ (m/r) log m), but because every message group carries r units its
// communication load blows up to ~ m log m — the deficiency BCC's batching
// step repairs.
type Randomized struct {
	// MaxResample bounds feasibility retries, as in BCC.
	MaxResample int
}

func init() { Register(Randomized{}) }

// Name implements Scheme.
func (Randomized) Name() string { return "randomized" }

// Plan implements Scheme.
func (s Randomized) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("randomized", m, n, r); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/randomized: nil rng (placement is randomized)")
	}
	maxTries := s.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	resamples := 0
	for try := 0; try < maxTries; try++ {
		assign := make([][]int, n)
		for w := 0; w < n; w++ {
			assign[w] = rng.Sample(m, r)
		}
		if coverageFeasible(m, assign) {
			return &randomizedPlan{m: m, n: n, r: r, assign: assign, resamples: resamples}, nil
		}
		resamples++
	}
	return nil, fmt.Errorf("coding/randomized: no feasible placement after %d tries (m=%d n=%d r=%d)",
		maxTries, m, n, r)
}

type randomizedPlan struct {
	m, n, r   int
	assign    [][]int
	resamples int
}

func (p *randomizedPlan) Scheme() string          { return "randomized" }
func (p *randomizedPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *randomizedPlan) Assignments() [][]int    { return p.assign }
func (p *randomizedPlan) Resamples() int          { return p.resamples }
func (p *randomizedPlan) WorstCaseThreshold() int { return -1 }

// ExpectedThreshold implements Plan: the batch-drawing coupon collector's
// expectation (eq. 5), capped at n.
func (p *randomizedPlan) ExpectedThreshold() float64 {
	k := coupon.BatchExpectedDraws(p.m, p.r)
	if k > float64(p.n) {
		return float64(p.n)
	}
	return k
}

// CommLoadPerWorker implements Plan: r unit messages per worker.
func (p *randomizedPlan) CommLoadPerWorker() float64 { return float64(p.r) }

// EncodeInto implements Plan: one unit message per assigned example. The
// partial gradients are copied into pooled payload buffers so the messages
// never alias the caller's parts scratch.
func (p *randomizedPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("randomized", p.assign, worker, parts)
	for k, g := range parts {
		buf := grabBuf(bufs, len(g))
		copy(buf, g)
		dst = append(dst, Message{From: worker, Tag: p.assign[worker][k], Vec: buf, Units: 1})
	}
	return dst
}

func (p *randomizedPlan) NewDecoder() Decoder {
	return &randomizedDecoder{
		plan:    p,
		tracker: coupon.NewTracker(p.m),
		kept:    make([][]float64, p.m),
		heard:   newWorkerMask(p.n),
	}
}

type randomizedDecoder struct {
	plan    *randomizedPlan
	tracker *coupon.Tracker
	kept    [][]float64
	heard   workerMask
	units   float64
}

func (d *randomizedDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	d.heard.hear(msg.From)
	d.units += msg.Units
	if msg.Tag < 0 || msg.Tag >= d.plan.m {
		panic(fmt.Sprintf("coding/randomized: message with invalid example tag %d", msg.Tag))
	}
	if d.tracker.Offer(msg.Tag) {
		d.kept[msg.Tag] = msg.Vec
	}
	return d.Decodable()
}

func (d *randomizedDecoder) Decodable() bool { return d.tracker.Complete() }

func (d *randomizedDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: elements [lo, hi) of the
// example-order sum, so any partition reproduces the whole-range decode
// bit-for-bit.
func (d *randomizedDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.kept, lo, hi)
	return nil
}

func (d *randomizedDecoder) WorkersHeard() int      { return d.heard.count }
func (d *randomizedDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *randomizedDecoder) Reset() {
	d.tracker.Reset()
	for i := range d.kept {
		d.kept[i] = nil
	}
	d.heard.reset()
	d.units = 0
}

var _ Scheme = Randomized{}
