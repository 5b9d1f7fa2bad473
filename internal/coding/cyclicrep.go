package coding

import (
	"fmt"
	"math"

	"bcc/internal/linalg"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// CyclicRep is the Cyclic Repetition gradient-coding scheme of Tandon,
// Lei, Dimakis & Karampatziakis ("Gradient Coding", 2016), the scheme the
// paper benchmarks BCC against on EC2. It requires m == n (the paper groups
// examples into "super examples" to arrange this) and tolerates any
// s = r - 1 stragglers in the worst case, i.e. a deterministic recovery
// threshold of n - s = m - r + 1 (paper eq. 7) with unit communication load
// per worker (eq. 8).
//
// Construction (Algorithm of the gradient-coding paper): draw a random
// H in R^{s x n} whose rows sum to zero, so the all-ones vector lies in
// null(H). Row i of the coding matrix B is supported on the cyclic window
// {i, i+1, ..., i+s} (mod n), with leading coefficient 1 and the remaining s
// coefficients solved from H b_i = 0. Every row then lies in the
// (n-s)-dimensional null(H); generically any n-s rows span it, hence their
// span contains the all-ones vector and the master can decode from ANY n-s
// workers by solving a^T B_W = 1^T (here via Householder-QR least squares).
type CyclicRep struct {
	// MaxRetries bounds how many H draws are attempted when a draw is
	// degenerate (probability-zero event; default 50).
	MaxRetries int
}

func init() { Register(CyclicRep{}) }

// Name implements Scheme.
func (CyclicRep) Name() string { return "cyclicrep" }

// Plan implements Scheme.
func (c CyclicRep) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("cyclicrep", m, n, r); err != nil {
		return nil, err
	}
	if m != n {
		return nil, fmt.Errorf("coding/cyclicrep: requires m == n (group examples first); got m=%d n=%d", m, n)
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/cyclicrep: nil rng (construction is randomized)")
	}
	s := r - 1
	maxRetries := c.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 50
	}
	assign := make([][]int, n)
	for w := 0; w < n; w++ {
		ids := make([]int, r)
		for k := 0; k < r; k++ {
			ids[k] = (w + k) % n
		}
		assign[w] = ids
	}
	// Small codes are redrawn until every responder set decodes with at most
	// maxAmplification; if no draw gets there, the best one is kept.
	var b *vecmath.Matrix
	amp := math.Inf(1)
	var err error
	for try := 0; try < maxRetries && amp > maxAmplification; try++ {
		cand, cerr := buildCyclicRepB(n, s, rng)
		if cerr != nil {
			err = cerr
			continue
		}
		if a := worstAmplification(newCodedPlan("cyclicrep", m, n, r, s, cand, assign)); b == nil || a < amp {
			b, amp = cand, a
		}
	}
	if b == nil {
		return nil, fmt.Errorf("coding/cyclicrep: construction failed after %d tries: %w", maxRetries, err)
	}
	return newCodedPlan("cyclicrep", m, n, r, s, b, assign), nil
}

// buildCyclicRepB constructs the n x n coding matrix for tolerance s.
func buildCyclicRepB(n, s int, rng *rngutil.RNG) (*vecmath.Matrix, error) {
	b := vecmath.NewMatrix(n, n)
	if s == 0 {
		// r = 1: no redundancy; B is the identity.
		for i := 0; i < n; i++ {
			b.Set(i, i, 1)
		}
		return b, nil
	}
	// H: s x n random Gaussian with each ROW summing to zero => H * 1 = 0.
	h := vecmath.NewMatrix(s, n)
	for i := 0; i < s; i++ {
		var rowSum float64
		for j := 0; j < n-1; j++ {
			v := rng.Normal()
			h.Set(i, j, v)
			rowSum += v
		}
		h.Set(i, n-1, -rowSum)
	}
	// Row i of B: support {i..i+s} mod n, leading coefficient 1, remaining
	// coefficients x solving H[:, supp[1:]] x = -H[:, supp[0]].
	for i := 0; i < n; i++ {
		sys := vecmath.NewMatrix(s, s)
		rhs := make([]float64, s)
		for row := 0; row < s; row++ {
			for col := 0; col < s; col++ {
				sys.Set(row, col, h.At(row, (i+1+col)%n))
			}
			rhs[row] = -h.At(row, i%n)
		}
		x, err := linalg.SolveLU(sys, rhs)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		b.Set(i, i, 1)
		for col := 0; col < s; col++ {
			b.Set(i, (i+1+col)%n, x[col])
		}
	}
	return b, nil
}

// A random H can leave some responder set W with large decoding
// coefficients a whose terms cancel, so the rounding in the workers' coded
// messages reaches the decoded gradient amplified. Two runs of one job that
// decode from different responder sets (the sim and a real runtime) then
// agree only to that amplification times the rounding. Where the code has
// at most maxCheckedSubsets responder sets, Plan checks them all and
// redraws a code that amplifies by more than maxAmplification; at n = 8,
// r = 3 about a third of the first draws do.
const (
	maxCheckedSubsets = 100
	maxAmplification  = 1e3
)

// worstAmplification is max over responder sets W of size n-s and examples
// u of sum_{i in W} |a_i B[i][u]|, where a^T B_W = 1^T: the factor by which
// decoding from W can amplify the coded messages' relative rounding. It is
// +Inf when some set cannot decode and 0 when there are more than
// maxCheckedSubsets sets, which are not checked. It fills p's solve cache.
func worstAmplification(p *codedPlan) float64 {
	for subsets, i := 1, 1; i <= p.s; i++ {
		if subsets = subsets * (p.n - p.s + i) / i; subsets > maxCheckedSubsets {
			return 0
		}
	}
	dec := p.NewDecoder().(*codedDecoder)
	missing := make([]bool, p.n)
	worst := 0.0
	var visit func(from, left int)
	visit = func(from, left int) {
		if left > 0 {
			for w := from; w <= p.n-left; w++ {
				missing[w] = true
				visit(w+1, left-1)
				missing[w] = false
			}
			return
		}
		dec.Reset()
		for w := range missing {
			if !missing[w] {
				dec.Offer(Message{From: w, Tag: -1, Units: 1})
			}
		}
		if !dec.Decodable() {
			worst = math.Inf(1)
			return
		}
		for u := 0; u < p.m; u++ {
			sum := 0.0
			for i, w := range dec.workers {
				sum += math.Abs(dec.coeffs[i] * p.b.At(w, u))
			}
			worst = max(worst, sum)
		}
	}
	visit(0, p.s)
	return worst
}

// ---------------------------------------------------------------------------
// Shared real-coded plan/decoder (cyclicrep and every nested level)
// ---------------------------------------------------------------------------

// codedPlan is a linear gradient code with real coefficient matrix B
// (n x m): worker i transmits sum_u B[i][u] g_u restricted to its support.
//
// Everything derivable from the code matrix alone is hoisted to plan
// construction — per-worker encoding coefficients and the all-ones target
// vector — and decode coefficient solves are memoized per responder SET
// (order-independent, coefficients stored by worker id) in a synchronized
// plan-level cache, so the same linear system is solved once per run
// instead of once per iteration.
type codedPlan struct {
	scheme  string
	m, n, r int
	s       int // worst-case straggler tolerance
	b       *vecmath.Matrix
	assign  [][]int
	// encCoeffs[w][k] = B[w][assign[w][k]]: the worker's encoding vector,
	// precomputed so EncodeInto allocates nothing.
	encCoeffs [][]float64
	// ones is the decode target 1^T, built once.
	ones []float64
	// decodes caches the decode vectors a (a^T B_W = 1^T) per responder
	// set, coefficients indexed by worker id.
	decodes solveCache
}

func newCodedPlan(scheme string, m, n, r, s int, b *vecmath.Matrix, assign [][]int) *codedPlan {
	enc := make([][]float64, n)
	for w := 0; w < n; w++ {
		cs := make([]float64, len(assign[w]))
		for k, u := range assign[w] {
			cs[k] = b.At(w, u)
		}
		enc[w] = cs
	}
	ones := make([]float64, m)
	vecmath.Fill(ones, 1)
	return &codedPlan{
		scheme: scheme,
		m:      m, n: n, r: r, s: s,
		b:         b,
		assign:    assign,
		encCoeffs: enc,
		ones:      ones,
	}
}

func (p *codedPlan) Scheme() string          { return p.scheme }
func (p *codedPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *codedPlan) Assignments() [][]int    { return p.assign }

// WorstCaseThreshold implements Plan: n - s workers always suffice.
func (p *codedPlan) WorstCaseThreshold() int { return p.n - p.s }

// MinResponders implements the exact converse bound: the decoder solves
// only once n-s workers are heard, so no smaller responder set decodes.
func (p *codedPlan) MinResponders() int { return p.n - p.s }

// ExpectedThreshold implements Plan. The cyclic code decodes from any n-s
// workers and (in the full-window construction) from no fewer, so the
// threshold is deterministic.
func (p *codedPlan) ExpectedThreshold() float64 { return float64(p.n - p.s) }

func (p *codedPlan) CommLoadPerWorker() float64 { return 1 }

// Messages implements Plan: every worker sends one coded combination.
func (p *codedPlan) Messages(int) int { return 1 }

// EncodeInto implements Plan: one message carrying the coded combination,
// formed directly in a pooled payload buffer with the plan's precomputed
// coefficients.
func (p *codedPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts(p.scheme, p.assign, worker, parts)
	buf := grabBuf(bufs, len(parts[0]))
	vecmath.LinearCombinationInto(buf, p.encCoeffs[worker], parts)
	return append(dst, Message{
		From:  worker,
		Tag:   -1,
		Vec:   buf,
		Units: 1,
	})
}

// Solves returns how many decode linear systems this plan has actually
// solved (cache misses); exposed for the solve-cache regression tests.
func (p *codedPlan) Solves() int { return p.decodes.solveCount() }

func (p *codedPlan) NewDecoder() Decoder {
	return &codedDecoder{
		plan:     p,
		workers:  make([]int, 0, p.n),
		vecs:     make([][]float64, 0, p.n),
		sortBuf:  make([]int, 0, p.n),
		keyBuf:   make([]byte, 0, 4*p.n),
		coeffBuf: make([]float64, p.n),
	}
}

type codedDecoder struct {
	plan    *codedPlan
	workers []int
	vecs    [][]float64
	units   float64
	coeffs  []float64 // decoding vector a in arrival order, set once solvable

	// Scratch reused across iterations: responder-set key building and the
	// arrival-order coefficient view of a cached by-worker solve.
	sortBuf  []int
	keyBuf   []byte
	coeffBuf []float64
}

func (d *codedDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	d.workers = append(d.workers, msg.From)
	d.vecs = append(d.vecs, msg.Vec)
	d.units += msg.Units
	if len(d.workers) >= d.plan.WorstCaseThreshold() {
		d.trySolve()
	}
	return d.Decodable()
}

// trySolve attempts to find a with a^T B_W = 1^T for the workers heard so
// far, consulting the plan's solve cache first: a responder set that has
// decoded before — in any arrival order — reuses its coefficients, so the
// steady state of a run solves each system exactly once. Failure (a
// probability-zero degenerate subset, or fewer workers than the effective
// threshold) leaves the decoder waiting for more messages.
func (d *codedDecoder) trySolve() {
	var key []byte
	d.sortBuf, key = setKey(d.workers, d.sortBuf, d.keyBuf)
	d.keyBuf = key
	if byWorker, ok, hit := d.plan.decodes.get(key); hit {
		if ok {
			cs := d.coeffBuf[:len(d.workers)]
			for i, w := range d.workers {
				cs[i] = byWorker[w]
			}
			d.coeffs = cs
		}
		return
	}
	k := len(d.workers)
	// Build B_W^T : m x k, solve least squares against the all-ones vector.
	bt := vecmath.NewMatrix(d.plan.m, k)
	for col, w := range d.workers {
		for u := 0; u < d.plan.m; u++ {
			bt.Set(u, col, d.plan.b.At(w, u))
		}
	}
	a, err := linalg.LeastSquares(bt, d.plan.ones)
	if err != nil || linalg.Residual(bt, a, d.plan.ones) > 1e-6 {
		// Subset does not span the all-ones vector yet.
		d.plan.decodes.put(key, nil, false)
		return
	}
	byWorker := make([]float64, d.plan.n)
	for col, w := range d.workers {
		byWorker[w] = a[col]
	}
	d.plan.decodes.put(key, byWorker, true)
	d.coeffs = a
}

func (d *codedDecoder) Decodable() bool { return d.coeffs != nil }

func (d *codedDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: it combines the kept messages
// with the solved coefficients over output elements [lo, hi). Each element
// accumulates its terms coeffs[i]*vecs[i][t] in slice order from zero — the
// same per-element sequence as LinearCombinationInto — so any partition
// reproduces the whole-range decode bit-for-bit.
func (d *codedDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	for t := lo; t < hi; t++ {
		dst[t] = 0
	}
	for i, v := range d.vecs[:len(d.coeffs)] {
		c := d.coeffs[i]
		for t := lo; t < hi; t++ {
			dst[t] += c * v[t]
		}
	}
	return nil
}

func (d *codedDecoder) WorkersHeard() int      { return len(d.workers) }
func (d *codedDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *codedDecoder) Reset() {
	for i := range d.vecs {
		d.vecs[i] = nil
	}
	d.workers = d.workers[:0]
	d.vecs = d.vecs[:0]
	d.units = 0
	d.coeffs = nil
}

var _ Scheme = CyclicRep{}
