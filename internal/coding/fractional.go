package coding

import (
	"fmt"
	"math"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// Fractional is the Fractional Repetition gradient-coding scheme of Tandon
// et al., referenced in footnote 2 of the paper: although designed for the
// same worst case as CyclicRep (tolerate s = r - 1 stragglers), it can
// finish EARLY when the responding workers happen to cover every block —
// making it an interesting middle ground between CR and BCC.
//
// Construction: requires m == n and r | n. The n workers form r groups; the
// n examples form n/r blocks of r consecutive examples. Within each group,
// worker j holds block j, so every block is replicated r times (once per
// group). Workers ship their block's gradient SUM, and the master decodes
// by summation once every block is covered — coverage decoding exactly like
// BCC, but with a deterministic, perfectly balanced placement.
//
// Any n - s workers necessarily cover all blocks (each block has r = s + 1
// replicas), so the worst-case threshold matches CR's m - r + 1 while the
// average threshold under a random response order is substantially lower.
type Fractional struct{}

func init() { Register(Fractional{}) }

// Name implements Scheme.
func (Fractional) Name() string { return "fractional" }

// Plan implements Scheme.
func (Fractional) Plan(m, n, r int, _ *rngutil.RNG) (Plan, error) {
	if err := validate("fractional", m, n, r); err != nil {
		return nil, err
	}
	if m != n {
		return nil, fmt.Errorf("coding/fractional: requires m == n; got m=%d n=%d", m, n)
	}
	if n%r != 0 {
		return nil, fmt.Errorf("coding/fractional: requires r | n; got n=%d r=%d", n, r)
	}
	nBlocks := n / r
	// Block b holds examples [b*r, (b+1)*r). Worker w in group g = w / nBlocks
	// holds block w % nBlocks.
	blocks := make([][]int, nBlocks)
	for bi := 0; bi < nBlocks; bi++ {
		ids := make([]int, r)
		for k := range ids {
			ids[k] = bi*r + k
		}
		blocks[bi] = ids
	}
	assign := make([][]int, n)
	blockOf := make([]int, n)
	for w := 0; w < n; w++ {
		bi := w % nBlocks
		blockOf[w] = bi
		assign[w] = blocks[bi]
	}
	p := &fractionalPlan{m: m, n: n, r: r, nBlocks: nBlocks, blockOf: blockOf, assign: assign}
	// The without-replacement coverage expectation is an O(n^2 * nBlocks)
	// inclusion-exclusion sum; solve it once here instead of on every
	// ExpectedThreshold call (the experiment harness queries it per trial).
	p.expected = p.computeExpectedThreshold()
	return p, nil
}

type fractionalPlan struct {
	m, n, r  int
	nBlocks  int
	blockOf  []int
	assign   [][]int
	expected float64 // E[K], computed at construction
}

func (p *fractionalPlan) Scheme() string          { return "fractional" }
func (p *fractionalPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *fractionalPlan) Assignments() [][]int    { return p.assign }

// NumBlocks returns the number of distinct data blocks n/r.
func (p *fractionalPlan) NumBlocks() int { return p.nBlocks }

// WorstCaseThreshold implements Plan: n - (r-1) workers always cover every
// block, because each block is replicated r times.
func (p *fractionalPlan) WorstCaseThreshold() int { return p.n - (p.r - 1) }

// ExpectedThreshold implements Plan: the expected number of draws, without
// replacement, from n workers (r replicas of each of n/r blocks) until all
// blocks appear — solved once at Plan construction.
func (p *fractionalPlan) ExpectedThreshold() float64 { return p.expected }

// computeExpectedThreshold evaluates E[K] exactly:
//
//	E[K] = n - sum over blocks of expected "wasted" draws … computed via
//	E[K] = sum_{t} P(K > t) with P(K > t) from inclusion-exclusion over
//	blocks entirely absent from the first t draws.
func (p *fractionalPlan) computeExpectedThreshold() float64 {
	n, r, nb := p.n, p.r, p.nBlocks
	// P(K > t) = P(some block has all r replicas outside the first t draws)
	//          = sum_{j>=1} (-1)^{j+1} C(nb, j) C(n - j*r, t) / C(n, t).
	// Expectation = sum_{t=0..n-1} P(K > t). Terms use log-space ratios.
	var e float64
	for t := 0; t < n; t++ {
		e += fractionalSurvival(n, r, nb, t)
	}
	return e
}

// fractionalSurvival returns P(K > t) as above; exported indirectly for
// tests via ExpectedThreshold cross-check against Monte-Carlo.
func fractionalSurvival(n, r, nb, t int) float64 {
	if t < nb {
		return 1
	}
	var p float64
	sign := 1.0
	logCnbj := 0.0
	for j := 1; j <= nb; j++ {
		logCnbj += math.Log(float64(nb-j+1)) - math.Log(float64(j))
		if n-j*r < t {
			break // C(n-j*r, t) = 0, and so are all later terms
		}
		// log [ C(n-j*r, t) / C(n, t) ] = sum_{i=0..t-1} log((n-j*r-i)/(n-i))
		var logRatio float64
		for i := 0; i < t; i++ {
			logRatio += math.Log(float64(n-j*r-i)) - math.Log(float64(n-i))
		}
		term := math.Exp(logCnbj + logRatio)
		p += sign * term
		sign = -sign
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

func (p *fractionalPlan) CommLoadPerWorker() float64 { return 1 }

// EncodeInto implements Plan: block sum tagged with the block id, summed
// directly into a pooled payload buffer.
func (p *fractionalPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("fractional", p.assign, worker, parts)
	buf := grabBuf(bufs, len(parts[0]))
	vecmath.SumVectorsInto(buf, parts)
	return append(dst, Message{
		From:  worker,
		Tag:   p.blockOf[worker],
		Vec:   buf,
		Units: 1,
	})
}

func (p *fractionalPlan) NewDecoder() Decoder {
	return &fractionalDecoder{
		plan:  p,
		kept:  make([][]float64, p.nBlocks),
		heard: newWorkerMask(p.n),
	}
}

type fractionalDecoder struct {
	plan    *fractionalPlan
	kept    [][]float64
	covered int
	heard   workerMask
	units   float64
}

func (d *fractionalDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	if d.heard.hear(msg.From) {
		d.units += msg.Units
	}
	if msg.Tag < 0 || msg.Tag >= d.plan.nBlocks {
		panic(fmt.Sprintf("coding/fractional: invalid block tag %d", msg.Tag))
	}
	if d.kept[msg.Tag] == nil {
		d.kept[msg.Tag] = msg.Vec
		d.covered++
	}
	return d.Decodable()
}

func (d *fractionalDecoder) Decodable() bool { return d.covered == d.plan.nBlocks }

func (d *fractionalDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: elements [lo, hi) of the
// block-order sum, so any partition reproduces the whole-range decode
// bit-for-bit.
func (d *fractionalDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.kept, lo, hi)
	return nil
}

func (d *fractionalDecoder) WorkersHeard() int      { return d.heard.count }
func (d *fractionalDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *fractionalDecoder) Reset() {
	for i := range d.kept {
		d.kept[i] = nil
	}
	d.covered = 0
	d.heard.reset()
	d.units = 0
}

var _ Scheme = Fractional{}
