package coding

import (
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// Uncoded is the paper's baseline: the m examples are partitioned disjointly
// across the n workers (no redundancy), each worker ships the sum of its
// partial gradients, and the master must wait for every worker that holds
// data. Its recovery threshold is therefore n and it provides no straggler
// protection, but it attains the minimum possible communication load.
type Uncoded struct{}

func init() { Register(Uncoded{}) }

// Name implements Scheme.
func (Uncoded) Name() string { return "uncoded" }

// Plan implements Scheme. The computational load of the uncoded scheme is
// structurally ceil(m/n); the r argument is validated against it so callers
// cannot silently assume redundancy that does not exist.
func (Uncoded) Plan(m, n, r int, _ *rngutil.RNG) (Plan, error) {
	need := (m + n - 1) / n
	if r < need {
		r = need
	}
	if err := validate("uncoded", m, n, r); err != nil {
		return nil, err
	}
	// Balanced contiguous partition; with n > m some workers hold nothing.
	assign := make([][]int, n)
	next := 0
	for w := 0; w < n; w++ {
		size := m / n
		if w < m%n {
			size++
		}
		ids := make([]int, size)
		for k := range ids {
			ids[k] = next
			next++
		}
		assign[w] = ids
	}
	holders := n
	if m < n {
		holders = m
	}
	return &uncodedPlan{m: m, n: n, r: need, assign: assign, holders: holders}, nil
}

type uncodedPlan struct {
	m, n, r int
	assign  [][]int
	holders int // workers with at least one example
}

func (p *uncodedPlan) Scheme() string          { return "uncoded" }
func (p *uncodedPlan) Params() (int, int, int) { return p.m, p.n, p.r }
func (p *uncodedPlan) Assignments() [][]int    { return p.assign }
func (p *uncodedPlan) WorstCaseThreshold() int { return p.holders }

// MinResponders implements the exact converse bound: uncoded has zero
// redundancy, so every data-holding worker is required.
func (p *uncodedPlan) MinResponders() int { return p.holders }
func (p *uncodedPlan) ExpectedThreshold() float64 {
	return float64(p.holders)
}
func (p *uncodedPlan) CommLoadPerWorker() float64 { return 1 }

// EncodeInto implements Plan: one message carrying the sum of the worker's
// partial gradients. Workers with no data transmit nothing.
func (p *uncodedPlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts("uncoded", p.assign, worker, parts)
	if len(parts) == 0 {
		return dst
	}
	buf := grabBuf(bufs, len(parts[0]))
	vecmath.SumVectorsInto(buf, parts)
	return append(dst, Message{From: worker, Tag: worker, Vec: buf, Units: 1})
}

func (p *uncodedPlan) NewDecoder() Decoder {
	return &uncodedDecoder{plan: p, got: make([][]float64, p.n)}
}

type uncodedDecoder struct {
	plan  *uncodedPlan
	got   [][]float64 // indexed by worker, nil until heard
	heard int
	units float64
}

func (d *uncodedDecoder) Offer(msg Message) bool {
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

func (d *uncodedDecoder) Decodable() bool { return d.heard >= d.plan.holders }

func (d *uncodedDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: elements [lo, hi) of the
// worker-order sum, so the result is bit-for-bit identical regardless of
// message arrival order and any partition reproduces the whole-range decode.
func (d *uncodedDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.got, lo, hi)
	return nil
}

func (d *uncodedDecoder) WorkersHeard() int      { return d.heard }
func (d *uncodedDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *uncodedDecoder) Reset() {
	for i := range d.got {
		d.got[i] = nil
	}
	d.heard = 0
	d.units = 0
}

var _ Scheme = Uncoded{}
