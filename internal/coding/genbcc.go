package coding

import (
	"fmt"
	"math"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// GeneralizedBCC is the heterogeneous-cluster scheme of the paper's §IV:
// worker i independently samples Loads[i] distinct examples uniformly at
// random (no batching — Theorem 2's construction G0) and, following the
// section's uncoded communication model, ships each partial gradient
// individually. The master decodes by coverage over the m examples.
//
// The per-worker loads typically come from the hetero package's P2
// allocator. Because loads are placement-specific the scheme is NOT in the
// global registry; construct it explicitly:
//
//	plan, err := coding.GeneralizedBCC{Loads: alloc.Loads}.Plan(m, n, maxLoad, rng)
type GeneralizedBCC struct {
	// Loads[i] is worker i's sample count (values are clamped to m).
	Loads []int
	// MaxResample bounds feasibility retries (default 1000): the union of
	// the samples must cover every example or no iteration can ever decode.
	MaxResample int
}

// Name implements Scheme.
func (GeneralizedBCC) Name() string { return "genbcc" }

// Plan implements Scheme. r must be >= max(Loads); it exists only to satisfy
// the uniform interface and is validated, not used for placement. Values of
// r above m are clamped to m, mirroring the per-load clamping.
func (s GeneralizedBCC) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if r > m {
		r = m
	}
	if err := validate("genbcc", m, n, r); err != nil {
		return nil, err
	}
	if len(s.Loads) != n {
		return nil, fmt.Errorf("coding/genbcc: %d loads for %d workers", len(s.Loads), n)
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/genbcc: nil rng (placement is randomized)")
	}
	loads := make([]int, n)
	maxLoad := 0
	total := 0
	for i, l := range s.Loads {
		if l < 0 {
			return nil, fmt.Errorf("coding/genbcc: negative load %d for worker %d", l, i)
		}
		if l > m {
			l = m
		}
		loads[i] = l
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad > r {
		return nil, fmt.Errorf("coding/genbcc: max load %d exceeds declared r=%d", maxLoad, r)
	}
	if total < m {
		return nil, fmt.Errorf("coding/genbcc: total load %d cannot cover %d examples", total, m)
	}
	maxTries := s.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	for try := 0; try < maxTries; try++ {
		assign := make([][]int, n)
		for w := 0; w < n; w++ {
			assign[w] = rng.Sample(m, loads[w])
		}
		if coverageFeasible(m, assign) {
			return &genBCCPlan{m: m, n: n, r: r, loads: loads, assign: assign}, nil
		}
	}
	return nil, fmt.Errorf("coding/genbcc: no feasible placement after %d tries (total load %d over m=%d)",
		maxTries, total, m)
}

type genBCCPlan struct {
	m, n, r int
	loads   []int
	assign  [][]int
}

func (p *genBCCPlan) Scheme() string          { return "genbcc" }
func (p *genBCCPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *genBCCPlan) Assignments() [][]int    { return p.assign }

// Loads returns the per-worker sample counts.
func (p *genBCCPlan) Loads() []int { return p.loads }

func (p *genBCCPlan) WorstCaseThreshold() int { return -1 }

// ExpectedThreshold implements Plan; heterogeneous loads have no clean
// closed form, so NaN signals "Monte-Carlo only".
func (p *genBCCPlan) ExpectedThreshold() float64 { return math.NaN() }

// CommLoadPerWorker implements Plan: the average per-worker load (uncoded
// communication ships every partial gradient separately).
func (p *genBCCPlan) CommLoadPerWorker() float64 {
	var total float64
	for _, l := range p.loads {
		total += float64(l)
	}
	return total / float64(p.n)
}

// EncodeInto implements Plan: one unit message per sampled example (§IV's
// uncoded communication model), copied into pooled payload buffers.
func (p *genBCCPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("genbcc", p.assign, worker, parts)
	for k, g := range parts {
		buf := grabBuf(bufs, len(g))
		copy(buf, g)
		dst = append(dst, Message{From: worker, Tag: p.assign[worker][k], Vec: buf, Units: 1})
	}
	return dst
}

func (p *genBCCPlan) NewDecoder() Decoder {
	return &genBCCDecoder{
		plan:    p,
		tracker: coupon.NewTracker(p.m),
		kept:    make([][]float64, p.m),
		heard:   newWorkerMask(p.n),
	}
}

type genBCCDecoder struct {
	plan    *genBCCPlan
	tracker *coupon.Tracker
	kept    [][]float64
	heard   workerMask
	units   float64
}

func (d *genBCCDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	d.heard.hear(msg.From)
	d.units += msg.Units
	if msg.Tag < 0 || msg.Tag >= d.plan.m {
		panic(fmt.Sprintf("coding/genbcc: invalid example tag %d", msg.Tag))
	}
	if d.tracker.Offer(msg.Tag) {
		d.kept[msg.Tag] = msg.Vec
	}
	return d.Decodable()
}

func (d *genBCCDecoder) Decodable() bool { return d.tracker.Complete() }

func (d *genBCCDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: elements [lo, hi) of the
// example-order sum, so any partition reproduces the whole-range decode
// bit-for-bit.
func (d *genBCCDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.kept, lo, hi)
	return nil
}

func (d *genBCCDecoder) WorkersHeard() int      { return d.heard.count }
func (d *genBCCDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *genBCCDecoder) Reset() {
	d.tracker.Reset()
	for i := range d.kept {
		d.kept[i] = nil
	}
	d.heard.reset()
	d.units = 0
}

var _ Scheme = GeneralizedBCC{}

// ---------------------------------------------------------------------------
// Partitioned: the LB baseline's placement
// ---------------------------------------------------------------------------

// Partitioned is the load-balancing baseline of §IV-C as a coding scheme:
// the m examples are split into DISJOINT contiguous blocks sized by Loads
// (typically hetero.LoadBalancedLoads), each worker ships the sum of its
// block, and the master must wait for every loaded worker. It generalizes
// Uncoded to non-uniform loads. Not registered; construct explicitly.
type Partitioned struct {
	// Loads[i] is worker i's block size; the loads must sum to exactly m.
	Loads []int
}

// Name implements Scheme.
func (Partitioned) Name() string { return "partitioned" }

// Plan implements Scheme; r must be >= max(Loads).
func (s Partitioned) Plan(m, n, r int, _ *rngutil.RNG) (Plan, error) {
	if err := validate("partitioned", m, n, r); err != nil {
		return nil, err
	}
	if len(s.Loads) != n {
		return nil, fmt.Errorf("coding/partitioned: %d loads for %d workers", len(s.Loads), n)
	}
	total := 0
	maxLoad := 0
	for i, l := range s.Loads {
		if l < 0 {
			return nil, fmt.Errorf("coding/partitioned: negative load %d for worker %d", l, i)
		}
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total != m {
		return nil, fmt.Errorf("coding/partitioned: loads sum to %d, want m=%d", total, m)
	}
	if maxLoad > r {
		return nil, fmt.Errorf("coding/partitioned: max load %d exceeds declared r=%d", maxLoad, r)
	}
	assign := make([][]int, n)
	next := 0
	holders := 0
	for w := 0; w < n; w++ {
		ids := make([]int, s.Loads[w])
		for k := range ids {
			ids[k] = next
			next++
		}
		assign[w] = ids
		if len(ids) > 0 {
			holders++
		}
	}
	return &partitionedPlan{m: m, n: n, r: r, assign: assign, holders: holders}, nil
}

type partitionedPlan struct {
	m, n, r int
	assign  [][]int
	holders int
}

func (p *partitionedPlan) Scheme() string          { return "partitioned" }
func (p *partitionedPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *partitionedPlan) Assignments() [][]int    { return p.assign }
func (p *partitionedPlan) WorstCaseThreshold() int { return p.holders }

// MinResponders implements the exact converse bound: the partitioned
// baseline has zero redundancy, so every data-holding worker is required.
func (p *partitionedPlan) MinResponders() int         { return p.holders }
func (p *partitionedPlan) ExpectedThreshold() float64 { return float64(p.holders) }
func (p *partitionedPlan) CommLoadPerWorker() float64 { return 1 }

func (p *partitionedPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("partitioned", p.assign, worker, parts)
	if len(parts) == 0 {
		return dst
	}
	buf := grabBuf(bufs, len(parts[0]))
	vecmath.SumVectorsInto(buf, parts)
	return append(dst, Message{From: worker, Tag: worker, Vec: buf, Units: 1})
}

func (p *partitionedPlan) NewDecoder() Decoder {
	return &partitionedDecoder{plan: p, got: make([][]float64, p.n)}
}

type partitionedDecoder struct {
	plan  *partitionedPlan
	got   [][]float64
	heard int
	units float64
}

func (d *partitionedDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	if d.got[msg.From] == nil {
		d.got[msg.From] = msg.Vec
		d.heard++
		d.units += msg.Units
	}
	return d.Decodable()
}

func (d *partitionedDecoder) Decodable() bool { return d.heard >= d.plan.holders }

func (d *partitionedDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: elements [lo, hi) of the
// worker-order sum; any partition reproduces the whole-range decode
// bit-for-bit.
func (d *partitionedDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.got, lo, hi)
	return nil
}

func (d *partitionedDecoder) WorkersHeard() int      { return d.heard }
func (d *partitionedDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *partitionedDecoder) Reset() {
	for i := range d.got {
		d.got[i] = nil
	}
	d.heard = 0
	d.units = 0
}

var _ Scheme = Partitioned{}
