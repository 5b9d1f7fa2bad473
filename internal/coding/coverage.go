package coding

import (
	"slices"

	"bcc/internal/vecmath"
)

// coveragePlan is the one Plan behind the eight schemes whose master runs
// BCC's aggregation rule (§III-A): keep the first message per slot, discard
// duplicates, stop once enough slots are covered and sum what was kept. The
// schemes differ only in what a slot is and how many must be covered:
//
//	bcc, bccapprox        slot = batch; one message per worker
//	bccmulti              slot = (finer) batch; K messages per worker
//	fractional            slot = block; one message per worker
//	randomized, genbcc    slot = example; one message per assigned example
//	uncoded, partitioned  slot = worker; one message per data holder
//
// Each scheme draws its placement, cuts every worker's partial gradients
// into groups and sets its threshold values; encode, offer and decode are
// shared. Every slot some group carries must be covered, except that
// bccapprox lowers need to ceil(Phi*N) and inflates the sum of what it kept.
type coveragePlan struct {
	scheme  string
	m, n, r int
	assign  [][]int
	// groups[w] lists worker w's messages in send order; owned[w] holds
	// their tags sorted, for Offer's sender check.
	groups [][]group
	owned  [][]int
	slots  int // tags range over [0, slots)
	full   int // slots some group carries: an exact decode covers them all
	need   int // slots covered before decoding; below full only for bccapprox

	worst    int
	expected func() float64
	minResp  int
	comm     float64
}

// group is one message of a worker: the sum of its partial gradients
// parts[lo:hi], tagged with the slot it covers.
type group struct{ tag, lo, hi int }

// newCoveragePlan builds the shared plan of an exact coverage scheme with
// no deterministic threshold and unit communication load; callers override
// the threshold fields that differ.
func newCoveragePlan(scheme string, m, n, r int, assign [][]int, groups [][]group, slots int) *coveragePlan {
	p := &coveragePlan{
		scheme: scheme, m: m, n: n, r: r,
		assign: assign,
		groups: groups,
		owned:  make([][]int, n),
		slots:  slots,
		worst:  -1,
		comm:   1,
	}
	carried := make([]bool, slots)
	for w, gs := range groups {
		tags := make([]int, len(gs))
		for i, g := range gs {
			tags[i] = g.tag
			if !carried[g.tag] {
				carried[g.tag] = true
				p.full++
			}
		}
		slices.Sort(tags)
		p.owned[w] = tags
	}
	p.need = p.full
	p.minResp = coverageBound(m, assign)
	return p
}

// wholeGroups gives every worker holding data one group, the sum of all its
// partial gradients, tagged tags[w].
func wholeGroups(assign [][]int, tags []int) [][]group {
	gs := make([][]group, len(assign))
	for w, a := range assign {
		if len(a) > 0 {
			gs[w] = []group{{tag: tags[w], hi: len(a)}}
		}
	}
	return gs
}

// exampleGroups sends every assigned example's partial gradient alone,
// tagged with the example id.
func exampleGroups(assign [][]int) [][]group {
	gs := make([][]group, len(assign))
	for w, a := range assign {
		gs[w] = make([]group, len(a))
		for k, u := range a {
			gs[w][k] = group{tag: u, lo: k, hi: k + 1}
		}
	}
	return gs
}

// capAt caps an expected worker count at n: a run stops once every worker
// reported.
func capAt(k float64, n int) float64 {
	if k > float64(n) {
		return float64(n)
	}
	return k
}

func (p *coveragePlan) Scheme() string             { return p.scheme }
func (p *coveragePlan) Params() (int, int, int)    { return p.m, p.n, p.r }
func (p *coveragePlan) Assignments() [][]int       { return p.assign }
func (p *coveragePlan) WorstCaseThreshold() int    { return p.worst }
func (p *coveragePlan) ExpectedThreshold() float64 { return p.expected() }
func (p *coveragePlan) MinResponders() int         { return p.minResp }
func (p *coveragePlan) CommLoadPerWorker() float64 { return p.comm }

// EncodeInto implements Plan: one message per group, its parts summed
// straight into a pooled payload buffer.
func (p *coveragePlan) EncodeInto(dst []Message, worker int, parts [][]float64, bufs Buffers) []Message {
	checkParts(p.scheme, p.assign, worker, parts)
	for _, g := range p.groups[worker] {
		buf := grabBuf(bufs, len(parts[g.lo]))
		vecmath.SumVectorsInto(buf, parts[g.lo:g.hi])
		dst = append(dst, Message{From: worker, Tag: g.tag, Vec: buf, Units: 1})
	}
	return dst
}

// Messages implements Plan: one message per group.
func (p *coveragePlan) Messages(worker int) int { return len(p.groups[worker]) }

// owns reports whether the plan gives worker w a group tagged tag.
func (p *coveragePlan) owns(w, tag int) bool {
	if w < 0 || w >= p.n {
		return false
	}
	_, ok := slices.BinarySearch(p.owned[w], tag)
	return ok
}

func (p *coveragePlan) NewDecoder() Decoder {
	return &coverageDecoder{
		plan:  p,
		kept:  make([][]float64, p.slots),
		heard: make([]bool, p.n),
	}
}

// coverageDecoder keeps the first vector per slot and is decodable once
// plan.need slots are covered.
type coverageDecoder struct {
	plan    *coveragePlan
	kept    [][]float64
	covered int
	heard   []bool
	nHeard  int
	units   float64
}

// Offer implements Decoder: keep the first message per slot and discard
// duplicates (the master's data-aggregation rule of §III-A). A message
// whose (From, Tag) is not a group the plan gives that sender, or that
// carries no payload, is dropped: not kept, not heard, not counted.
func (d *coverageDecoder) Offer(msg Message) bool {
	if d.Decodable() {
		return true
	}
	if msg.Vec == nil || !d.plan.owns(msg.From, msg.Tag) {
		return false
	}
	if !d.heard[msg.From] {
		d.heard[msg.From] = true
		d.nHeard++
	}
	d.units += msg.Units
	if d.kept[msg.Tag] == nil {
		d.kept[msg.Tag] = msg.Vec
		d.covered++
	}
	return d.Decodable()
}

func (d *coverageDecoder) Decodable() bool { return d.covered >= d.plan.need }

func (d *coverageDecoder) DecodeInto(dst []float64) error {
	return d.DecodeSliceInto(dst, 0, len(dst))
}

// DecodeSliceInto implements SliceDecoder: elements [lo, hi) of the kept
// vectors summed in slot order, inflated by full/covered when fewer than
// every carried slot was covered. Each element runs the same sequence on
// any partition, so every partition reproduces the whole-range decode
// bit-for-bit.
func (d *coverageDecoder) DecodeSliceInto(dst []float64, lo, hi int) error {
	if !d.Decodable() {
		return ErrNotDecodable
	}
	if err := checkDecodeSlice(dst, lo, hi); err != nil {
		return err
	}
	sumSparseSliceInto(dst, d.kept, lo, hi)
	if d.covered < d.plan.full {
		vecmath.Scale(float64(d.plan.full)/float64(d.covered), dst[lo:hi])
	}
	return nil
}

func (d *coverageDecoder) WorkersHeard() int      { return d.nHeard }
func (d *coverageDecoder) UnitsReceived() float64 { return d.units }

// Reset implements Decoder.
func (d *coverageDecoder) Reset() {
	clear(d.kept)
	clear(d.heard)
	d.covered, d.nHeard = 0, 0
	d.units = 0
}
