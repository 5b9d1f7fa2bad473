package coding

import (
	"fmt"
	"math/cmplx"

	"bcc/internal/linalg"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// CyclicMDS is a deterministic gradient code in the style of Raviv, Tamo,
// Tandon & Dimakis ("Gradient Coding from Cyclic MDS Codes") and Halbawi et
// al.'s Reed-Solomon construction — the [8]/[9] comparators in the paper
// (eq. 7): same worst-case threshold m - r + 1 and unit communication load
// as CyclicRep, but with no randomness in the code matrix.
//
// Construction: with omega = e^{2*pi*i/n} and s = r - 1, the generator
// polynomial p(x) = prod_{j=1..s} (x - omega^j) has degree s and divides
// x^n - 1. Row i of B holds p's coefficients cyclically shifted by i, so the
// rows generate the cyclic code { q in C^n : q(omega^j) = 0, j = 1..s } of
// dimension n - s. The all-ones vector is (x^n - 1)/(x - 1) = prod_{j>=1}
// (x - omega^j), a multiple of p, hence in the code; and any n - s cyclic
// shifts of p are linearly independent, so every (n-s)-subset of workers can
// decode.
//
// Messages carry a complex combination of real gradients, transported as a
// (real, imaginary) pair. Following the paper's accounting (eq. 8 counts
// L = 1 per worker for all coded schemes; real-valued embeddings of this
// code exist), a message counts as one communication unit.
type CyclicMDS struct{}

func init() { Register(CyclicMDS{}) }

// Name implements Scheme.
func (CyclicMDS) Name() string { return "cyclicmds" }

// Plan implements Scheme. The rng argument is ignored — the code is
// deterministic.
func (CyclicMDS) Plan(m, n, r int, _ *rngutil.RNG) (Plan, error) {
	if err := validate("cyclicmds", m, n, r); err != nil {
		return nil, err
	}
	if m != n {
		return nil, fmt.Errorf("coding/cyclicmds: requires m == n (group examples first); got m=%d n=%d", m, n)
	}
	s := r - 1
	roots := make([]complex128, s)
	for j := 1; j <= s; j++ {
		roots[j-1] = linalg.RootOfUnity(j, n)
	}
	coeffs := linalg.PolyFromRoots(roots) // length s+1 == r
	b := linalg.NewCMatrix(n, n)
	assign := make([][]int, n)
	for i := 0; i < n; i++ {
		ids := make([]int, r)
		for k := 0; k <= s; k++ {
			u := (i + k) % n
			b.Set(i, u, coeffs[k])
			ids[k] = u
		}
		assign[i] = ids
	}
	ones := make([]complex128, m)
	for i := range ones {
		ones[i] = 1
	}
	return &mdsPlan{m: m, n: n, r: r, s: s, b: b, assign: assign, ones: ones}, nil
}

type mdsPlan struct {
	m, n, r int
	s       int
	b       *linalg.CMatrix
	assign  [][]int
	// ones is the decode target 1^T over C, built once.
	ones []complex128
	// decodes caches decode vectors per responder set (coefficients indexed
	// by worker id); like codedPlan's cache it makes the plan safe for
	// concurrent decoders and turns the per-iteration complex least-squares
	// solve into a one-time cost.
	decodes solveCache[[]complex128]
}

// Solves returns how many decode linear systems this plan has actually
// solved (cache misses); exposed for the solve-cache regression tests.
func (p *mdsPlan) Solves() int { return p.decodes.solveCount() }

func (p *mdsPlan) Scheme() string          { return "cyclicmds" }
func (p *mdsPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *mdsPlan) Assignments() [][]int    { return p.assign }

// Matrix exposes the complex coding matrix for tests.
func (p *mdsPlan) Matrix() *linalg.CMatrix { return p.b }

func (p *mdsPlan) WorstCaseThreshold() int { return p.n - p.s }

// MinResponders implements the exact converse bound: an MDS code over the
// workers cannot be decoded from fewer than n-s shares, regardless of which
// shares arrive.
func (p *mdsPlan) MinResponders() int         { return p.n - p.s }
func (p *mdsPlan) ExpectedThreshold() float64 { return float64(p.n - p.s) }
func (p *mdsPlan) CommLoadPerWorker() float64 { return 1 }

// EncodeInto implements Plan: z_i = sum_u B[i][u] g_u, shipped as (Re, Im)
// in pooled payload buffers.
func (p *mdsPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("cyclicmds", p.assign, worker, parts)
	dim := 0
	if len(parts) > 0 {
		dim = len(parts[0])
	}
	re := grabBuf(bufs, dim)
	im := grabBuf(bufs, dim)
	vecmath.Fill(re, 0)
	vecmath.Fill(im, 0)
	for k, u := range p.assign[worker] {
		c := p.b.At(worker, u)
		cr, ci := real(c), imag(c)
		g := parts[k]
		for t := 0; t < dim; t++ {
			re[t] += cr * g[t]
			im[t] += ci * g[t]
		}
	}
	return append(dst, Message{From: worker, Tag: -1, Vec: re, Imag: im, Units: 1})
}

func (p *mdsPlan) NewDecoder() Decoder {
	return &mdsDecoder{
		plan:     p,
		workers:  make([]int, 0, p.n),
		re:       make([][]float64, 0, p.n),
		im:       make([][]float64, 0, p.n),
		sortBuf:  make([]int, 0, p.n),
		keyBuf:   make([]byte, 0, 4*p.n),
		coeffBuf: make([]complex128, p.n),
	}
}

type mdsDecoder struct {
	plan    *mdsPlan
	workers []int
	re, im  [][]float64
	units   float64
	coeffs  []complex128

	// Scratch reused across iterations (see codedDecoder).
	sortBuf  []int
	keyBuf   []byte
	coeffBuf []complex128
}

func (d *mdsDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	d.workers = append(d.workers, msg.From)
	d.re = append(d.re, msg.Vec)
	d.im = append(d.im, msg.Imag)
	d.units += msg.Units
	if len(d.workers) >= d.plan.WorstCaseThreshold() {
		d.trySolve()
	}
	return d.Decodable()
}

func (d *mdsDecoder) trySolve() {
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
	// Solve B_W^T a = 1 over C: B_W^T is m x k (m >= k), consistent because
	// the all-ones vector lies in the span of any n-s rows.
	bt := linalg.NewCMatrix(d.plan.m, k)
	for col, w := range d.workers {
		for u := 0; u < d.plan.m; u++ {
			bt.Set(u, col, d.plan.b.At(w, u))
		}
	}
	a, err := linalg.CLeastSquares(bt, d.plan.ones)
	if err != nil {
		d.plan.decodes.put(key, nil, false)
		return
	}
	// Verify the residual before accepting.
	var worst float64
	for u := 0; u < d.plan.m; u++ {
		var s complex128
		for col := 0; col < k; col++ {
			s += bt.At(u, col) * a[col]
		}
		if diff := cmplx.Abs(s - 1); diff > worst {
			worst = diff
		}
	}
	if worst > 1e-6 {
		d.plan.decodes.put(key, nil, false)
		return
	}
	byWorker := make([]complex128, d.plan.n)
	for col, w := range d.workers {
		byWorker[w] = a[col]
	}
	d.plan.decodes.put(key, byWorker, true)
	d.coeffs = a
}

func (d *mdsDecoder) Decodable() bool { return d.coeffs != nil }

// DecodeInto combines the complex messages and writes the real part; the
// imaginary part of the true combination is identically zero (the decode
// identity sum_i a_i B[i][u] = 1 holds in C and the gradients are real).
func (d *mdsDecoder) DecodeInto(dst []float64) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	d.decodeRange(dst, 0, len(dst))
	return nil
}

// DecodeSliceInto implements SliceDecoder: reconstruct output elements
// [lo, hi) only.
func (d *mdsDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	d.decodeRange(dst, lo, hi)
	return nil
}

// decodeRange combines output dimensions [lo, hi): each element folds its
// per-worker terms in coefficient order, so any partition of the dimensions
// reproduces the serial result bit-for-bit.
func (d *mdsDecoder) decodeRange(dst []float64, lo, hi int) {
	for t := lo; t < hi; t++ {
		dst[t] = 0
	}
	for i, a := range d.coeffs {
		ar, ai := real(a), imag(a)
		re, im := d.re[i], d.im[i]
		for t := lo; t < hi; t++ {
			// Re[(ar + i*ai)(re + i*im)] = ar*re - ai*im
			dst[t] += ar*re[t] - ai*im[t]
		}
	}
}

func (d *mdsDecoder) WorkersHeard() int      { return len(d.workers) }
func (d *mdsDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *mdsDecoder) Reset() {
	for i := range d.re {
		d.re[i], d.im[i] = nil, nil
	}
	d.workers = d.workers[:0]
	d.re = d.re[:0]
	d.im = d.im[:0]
	d.units = 0
	d.coeffs = nil
}

var _ Scheme = CyclicMDS{}
