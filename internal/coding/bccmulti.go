package coding

import (
	"fmt"
	"sort"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// BCCMulti is a design-space ablation of BCC: instead of ONE batch of r
// examples, each worker independently picks K distinct batches of r/K
// examples (same computational load r) and ships one sum per batch (K unit
// messages). Collection at the master becomes the group-drawing coupon
// collector over ceil(m/(r/K)) finer batches.
//
// The analysis shows why the paper settles on K = 1: with K batches the
// expected worker threshold is ~ (m/r)(log(m/r) + log K) — marginally WORSE
// than BCC's (m/r)(log(m/r) + gamma) — while the communication load grows by
// a factor of K. The only benefit is that a duplicated batch wastes 1/K of a
// worker's upload instead of all of it. The `multibatch` experiment
// quantifies this tradeoff.
type BCCMulti struct {
	// K is the number of batches per worker (default 2).
	K int
	// MaxResample bounds feasibility retries, as in BCC.
	MaxResample int
}

func init() { Register(BCCMulti{}) }

// Name implements Scheme.
func (BCCMulti) Name() string { return "bccmulti" }

// Plan implements Scheme.
func (s BCCMulti) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("bccmulti", m, n, r); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/bccmulti: nil rng (placement is randomized)")
	}
	k := s.K
	if k <= 0 {
		k = 2
	}
	if r < k {
		return nil, fmt.Errorf("coding/bccmulti: load r=%d cannot be split into K=%d batches", r, k)
	}
	batchSize := r / k
	nBatches := (m + batchSize - 1) / batchSize
	if k > nBatches {
		return nil, fmt.Errorf("coding/bccmulti: K=%d exceeds the %d available batches", k, nBatches)
	}
	batches := make([][]int, nBatches)
	for bi := 0; bi < nBatches; bi++ {
		lo, hi := bi*batchSize, (bi+1)*batchSize
		if hi > m {
			hi = m
		}
		ids := make([]int, hi-lo)
		for j := range ids {
			ids[j] = lo + j
		}
		batches[bi] = ids
	}
	maxTries := s.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	for try := 0; try < maxTries; try++ {
		choice := make([][]int, n)
		covered := make([]bool, nBatches)
		nCovered := 0
		for w := 0; w < n; w++ {
			picks := rng.Sample(nBatches, k)
			sort.Ints(picks)
			choice[w] = picks
			for _, b := range picks {
				if !covered[b] {
					covered[b] = true
					nCovered++
				}
			}
		}
		if nCovered != nBatches {
			continue
		}
		assign := make([][]int, n)
		spans := make([][]batchSpan, n)
		for w := 0; w < n; w++ {
			var ids []int
			var sp []batchSpan
			for _, b := range choice[w] {
				lo := len(ids)
				ids = append(ids, batches[b]...)
				sp = append(sp, batchSpan{batch: b, lo: lo, hi: len(ids)})
			}
			assign[w] = ids
			spans[w] = sp
		}
		return &bccMultiPlan{
			m: m, n: n, r: r, k: k,
			nBatches: nBatches,
			assign:   assign,
			spans:    spans,
		}, nil
	}
	return nil, fmt.Errorf("coding/bccmulti: no feasible placement after %d tries (m=%d n=%d r=%d K=%d)",
		maxTries, m, n, r, k)
}

// batchSpan locates one batch's partial gradients inside a worker's
// assignment slice.
type batchSpan struct {
	batch, lo, hi int
}

type bccMultiPlan struct {
	m, n, r, k int
	nBatches   int
	assign     [][]int
	spans      [][]batchSpan
}

func (p *bccMultiPlan) Scheme() string          { return "bccmulti" }
func (p *bccMultiPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *bccMultiPlan) Assignments() [][]int    { return p.assign }

// NumBatches returns the (finer) batch count ceil(m/(r/K)).
func (p *bccMultiPlan) NumBatches() int { return p.nBatches }

func (p *bccMultiPlan) WorstCaseThreshold() int { return -1 }

// ExpectedThreshold implements Plan via the group-drawing collector: each
// worker reveals K distinct coupons of the nBatches types.
func (p *bccMultiPlan) ExpectedThreshold() float64 {
	k := coupon.BatchExpectedDraws(p.nBatches, p.k)
	if k > float64(p.n) {
		return float64(p.n)
	}
	return k
}

func (p *bccMultiPlan) CommLoadPerWorker() float64 { return float64(p.k) }

// EncodeInto implements Plan: one batch-sum message per selected batch,
// summed directly into pooled payload buffers.
func (p *bccMultiPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("bccmulti", p.assign, worker, parts)
	for _, sp := range p.spans[worker] {
		sum := grabBuf(bufs, len(parts[0]))
		vecmath.Fill(sum, 0)
		for i := sp.lo; i < sp.hi; i++ {
			vecmath.AddInto(sum, parts[i])
		}
		dst = append(dst, Message{From: worker, Tag: sp.batch, Vec: sum, Units: 1})
	}
	return dst
}

func (p *bccMultiPlan) NewDecoder() Decoder {
	return &coverageDecoder{
		nBatches: p.nBatches,
		need:     p.nBatches,
		tracker:  coupon.NewTracker(p.nBatches),
		kept:     make([][]float64, p.nBatches),
		heard:    newWorkerMask(p.n),
		scale:    func(covered int) float64 { return 1 },
	}
}

var _ Scheme = BCCMulti{}

// ---------------------------------------------------------------------------
// coverageDecoder: shared batch-coverage decoding (bccmulti, bccapprox)
// ---------------------------------------------------------------------------

// coverageDecoder keeps the first message per batch and declares
// decodability once `need` batches are covered; DecodeInto writes the kept
// sums scaled by scale(covered) — identity for exact schemes, an inflation
// factor for approximate ones.
type coverageDecoder struct {
	nBatches int
	need     int
	tracker  *coupon.Tracker
	kept     [][]float64
	heard    workerMask
	units    float64
	covered  int
	scale    func(covered int) float64
}

func (d *coverageDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	d.heard.hear(msg.From)
	d.units += msg.Units
	if msg.Tag < 0 || msg.Tag >= d.nBatches {
		panic(fmt.Sprintf("coding: coverage decoder got invalid batch tag %d", msg.Tag))
	}
	if d.tracker.Offer(msg.Tag) {
		d.kept[msg.Tag] = msg.Vec
		d.covered++
	}
	return d.Decodable()
}

func (d *coverageDecoder) Decodable() bool { return d.covered >= d.need }

func (d *coverageDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: output elements [lo, hi) of the
// kept batch messages summed in slot order, then scaled for the approximate
// schemes. Each element runs the same sequence on any partition, so every
// partition reproduces the whole-range decode bit-for-bit.
func (d *coverageDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.kept, lo, hi)
	if s := d.scale(d.covered); s != 1 {
		vecmath.Scale(s, dst[lo:hi])
	}
	return nil
}

func (d *coverageDecoder) WorkersHeard() int      { return d.heard.count }
func (d *coverageDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *coverageDecoder) Reset() {
	d.tracker.Reset()
	for i := range d.kept {
		d.kept[i] = nil
	}
	d.heard.reset()
	d.units = 0
	d.covered = 0
}
