package coding

import (
	"fmt"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// BCC is the paper's Batched Coupon's Collector scheme (§III).
//
// Data distribution: the m examples are partitioned into N = ceil(m/r)
// batches of (at most) r examples; every worker independently picks one
// batch uniformly at random. Communication: each worker ships the SUM of its
// batch's partial gradients (eq. 12) — a single unit-size message. The
// master keeps the first message per batch and decodes by summation once
// every batch is covered, emulating a coupon collector over N types; the
// expected recovery threshold is N*H_N (Theorem 1).
//
// The placement is decentralized (workers choose independently), so with a
// finite cluster there is a small probability some batch is chosen by
// nobody. MaxResample controls how many independent placements Plan tries
// before giving up; the paper's regime ("sufficiently large n") makes one
// draw feasible with overwhelming probability, and the resample count is
// recorded on the plan for the experiment harness to report.
type BCC struct {
	// MaxResample bounds the feasibility retries (default 1000).
	MaxResample int
	// Weights, if non-nil, skews the batch-selection distribution (length
	// must equal ceil(m/r); weights must be positive but need not be
	// normalized). The paper assumes uniform selection; this knob exists for
	// the `skew` robustness study — non-uniform selection inflates the
	// recovery threshold per the weighted coupon collector.
	Weights []float64
}

func init() { Register(BCC{}) }

// Name implements Scheme.
func (BCC) Name() string { return "bcc" }

// Plan implements Scheme.
func (b BCC) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("bcc", m, n, r); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/bcc: nil rng (placement is randomized)")
	}
	nBatches := (m + r - 1) / r
	if nBatches > n {
		return nil, fmt.Errorf("coding/bcc: %d batches cannot be covered by %d workers; need m/r <= n", nBatches, n)
	}
	// Batch b holds examples [b*r, min((b+1)*r, m)); the last batch may be
	// short (the paper zero-pads it, which is equivalent for gradients).
	batches := make([][]int, nBatches)
	for bi := 0; bi < nBatches; bi++ {
		lo, hi := bi*r, (bi+1)*r
		if hi > m {
			hi = m
		}
		ids := make([]int, hi-lo)
		for k := range ids {
			ids[k] = lo + k
		}
		batches[bi] = ids
	}
	maxTries := b.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	var cum []float64
	if b.Weights != nil {
		if len(b.Weights) != nBatches {
			return nil, fmt.Errorf("coding/bcc: %d weights for %d batches", len(b.Weights), nBatches)
		}
		cum = make([]float64, nBatches)
		var total float64
		for i, w := range b.Weights {
			if w <= 0 {
				return nil, fmt.Errorf("coding/bcc: non-positive weight %v at batch %d", w, i)
			}
			total += w
			cum[i] = total
		}
	}
	pick := func() int {
		if cum == nil {
			return rng.Intn(nBatches)
		}
		x := rng.Float64() * cum[nBatches-1]
		lo, hi := 0, nBatches-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	choice := make([]int, n)
	resamples := 0
	for try := 0; try < maxTries; try++ {
		covered := make([]bool, nBatches)
		nCovered := 0
		for w := 0; w < n; w++ {
			c := pick()
			choice[w] = c
			if !covered[c] {
				covered[c] = true
				nCovered++
			}
		}
		if nCovered == nBatches {
			assign := make([][]int, n)
			for w := 0; w < n; w++ {
				assign[w] = batches[choice[w]]
			}
			return &bccPlan{
				m: m, n: n, r: r,
				nBatches:  nBatches,
				choice:    append([]int(nil), choice...),
				assign:    assign,
				resamples: resamples,
			}, nil
		}
		resamples++
	}
	return nil, fmt.Errorf("coding/bcc: no feasible placement after %d tries (m=%d n=%d r=%d; increase n or r)",
		maxTries, m, n, r)
}

type bccPlan struct {
	m, n, r   int
	nBatches  int
	choice    []int   // worker -> batch
	assign    [][]int // worker -> example ids (aliases batch slices)
	resamples int
}

func (p *bccPlan) Scheme() string          { return "bcc" }
func (p *bccPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *bccPlan) Assignments() [][]int    { return p.assign }

// BatchOf returns the batch index worker w selected.
func (p *bccPlan) BatchOf(w int) int { return p.choice[w] }

// NumBatches returns N = ceil(m/r).
func (p *bccPlan) NumBatches() int { return p.nBatches }

// Resamples returns how many infeasible placements were rejected before this
// one was drawn.
func (p *bccPlan) Resamples() int { return p.resamples }

// WorstCaseThreshold implements Plan. The placement is random, so no fixed
// worker count guarantees decodability in the worst case.
func (p *bccPlan) WorstCaseThreshold() int { return -1 }

// ExpectedThreshold implements Plan: K_BCC = N * H_N (Theorem 1), capped at
// n because the run stops once every worker reported.
func (p *bccPlan) ExpectedThreshold() float64 {
	k := coupon.ExpectedDraws(p.nBatches)
	if k > float64(p.n) {
		return float64(p.n)
	}
	return k
}

func (p *bccPlan) CommLoadPerWorker() float64 { return 1 }

// EncodeInto implements Plan: the batch sum, tagged with the batch id
// (eq. 12), summed directly into a pooled payload buffer.
func (p *bccPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("bcc", p.assign, worker, parts)
	buf := grabBuf(bufs, len(parts[0]))
	vecmath.SumVectorsInto(buf, parts)
	return append(dst, Message{
		From:  worker,
		Tag:   p.choice[worker],
		Vec:   buf,
		Units: 1,
	})
}

func (p *bccPlan) NewDecoder() Decoder {
	return &bccDecoder{
		plan:    p,
		tracker: coupon.NewTracker(p.nBatches),
		kept:    make([][]float64, p.nBatches),
		heard:   newWorkerMask(p.n),
	}
}

type bccDecoder struct {
	plan    *bccPlan
	tracker *coupon.Tracker
	kept    [][]float64 // first message per batch
	heard   workerMask
	units   float64
}

// Offer implements Decoder: keep the first message per batch, discard
// duplicates (exactly the master's data-aggregation rule in §III-A).
func (d *bccDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	if d.heard.hear(msg.From) {
		d.units += msg.Units
	}
	if msg.Tag < 0 || msg.Tag >= d.plan.nBatches {
		panic(fmt.Sprintf("coding/bcc: message with invalid batch tag %d", msg.Tag))
	}
	if d.tracker.Offer(msg.Tag) {
		d.kept[msg.Tag] = msg.Vec
	}
	return d.Decodable()
}

func (d *bccDecoder) Decodable() bool { return d.tracker.Complete() }

func (d *bccDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: elements [lo, hi) of the batch
// sum in slot order, so any partition reproduces the whole-range decode
// bit-for-bit.
func (d *bccDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.kept, lo, hi)
	return nil
}

func (d *bccDecoder) WorkersHeard() int      { return d.heard.count }
func (d *bccDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *bccDecoder) Reset() {
	d.tracker.Reset()
	for i := range d.kept {
		d.kept[i] = nil
	}
	d.heard.reset()
	d.units = 0
}

var _ Scheme = BCC{}
