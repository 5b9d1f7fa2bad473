package cluster

import (
	"fmt"

	"bcc/internal/coding"
	"bcc/internal/faults"
	"bcc/internal/vecmath"
)

// workerRound is one worker's share of an iteration at one redundancy
// level, the only copy of it: the simulator (sim.go) and every real worker
// (runWorker) call it, so the two runtimes model the same round by
// construction. The round is the paper's (§IV eq. 15): the worker computes
// on its assignment, then uploads its encoded messages, and each phase
// takes a latency the model draws. draw makes those draws and run does the
// arithmetic. What happens between the two is the runtime's: the
// simulator orders the arrivals on its virtual clock, a real worker sleeps
// the latencies and drops the round if a fresher query arrives meanwhile.
//
// Who takes part is decided here, the same on every runtime:
//   - a worker the fault plan has crashed this iteration (!Active) makes no
//     draws and sends nothing;
//   - a worker with no messages at the level (uncoded with n > m) draws its
//     compute latency only and sends nothing;
//   - every other worker draws compute, then upload, and sends.
//
// A transmission the plan loses (MasterDrop) is still drawn and sent: the
// loss happens on the master's side, where the simulator drops it before
// its ingress queue and the live source after reading it. A stateful
// latency model therefore sees the same draws in the same order on every
// runtime.
type workerRound struct {
	worker int
	model  gradientModel
	units  [][]int
	faults *faults.Plan
	frac   float64 // payload byte width relative to raw64: scales the upload load
	// level is the Retunable level this round encodes at, 0 on fixed plans.
	level int
	// plan encodes at the level; on Retunable plans it is the level's
	// immutable view, never the shared plan's mutable active level, which
	// the master's controller may already have advanced past this round.
	plan   coding.Plan
	assign []int // the level's prefix of the worker's assignment
	points int   // raw data points in assign: the compute load
}

// workerRounds holds one worker's rounds, built once: one per level of a
// Retunable plan, in ascending level order, or the single round of a fixed
// plan.
type workerRounds []workerRound

// gradientModel is the minimal model surface workers need.
type gradientModel interface {
	Dim() int
	SubsetGradient(w []float64, rows []int, out []float64)
}

// newWorkerRounds builds worker's rounds. A Retunable plan must accept
// every level in [MinLevel, MaxLevel].
func newWorkerRounds(worker int, plan coding.Plan, mod gradientModel, units [][]int, fp *faults.Plan, frac float64) workerRounds {
	round := func(level int, plan coding.Plan, assign []int) workerRound {
		points := 0
		for _, u := range assign {
			points += len(units[u])
		}
		return workerRound{worker: worker, model: mod, units: units, faults: fp, frac: frac,
			level: level, plan: plan, assign: assign, points: points}
	}
	assign := plan.Assignments()[worker]
	rp, ok := plan.(coding.Retunable)
	if !ok {
		return workerRounds{round(0, plan, assign)}
	}
	var rs workerRounds
	for L := rp.MinLevel(); L <= rp.MaxLevel(); L++ {
		lp, err := rp.AtLevel(L)
		if err != nil {
			panic(fmt.Sprintf("cluster: Retunable plan rejects its own level %d: %v", L, err))
		}
		rs = append(rs, round(L, lp, assign[:L]))
	}
	return rs
}

// at returns the round at level: a broadcast's level on Retunable plans,
// where an out-of-range level (a fixed plan's 0 included) means the max
// level, the family's fixed default; the one round on fixed plans.
func (rs workerRounds) at(level int) *workerRound {
	if i := level - rs[0].level; i >= 0 && i < len(rs) {
		return &rs[i]
	}
	return &rs[len(rs)-1]
}

// draw makes the round's latency draws for iteration iter, Compute then
// Upload, under the participation rule above, and returns them with the
// number of messages the worker sends (0: it sends nothing). The upload
// load is a placement property, Messages units scaled by the payload
// codec's byte fraction, so both draws precede any arithmetic. The fault
// plan's slowdown windows scale both.
func (r *workerRound) draw(lat Latency, iter int) (comp, up float64, msgs int) {
	if !r.faults.Active(r.worker, iter) {
		return 0, 0, 0
	}
	slow := r.faults.SlowFactor(r.worker, iter)
	comp = slow * lat.Compute(r.worker, iter, r.points)
	if msgs = r.plan.Messages(r.worker); msgs > 0 {
		up = slow * lat.Upload(r.worker, iter, float64(msgs)*r.frac)
	}
	return comp, up, msgs
}

// run computes the round's partial gradients at query and encodes them:
// all of the worker's arithmetic. The partial gradients land in s, grown on
// first use and allocation-free thereafter; payloads come from bufs. The
// returned messages are s.msgs, valid until the next run on s. The payload
// codec is applied at each runtime's wire boundary, not here.
func (r *workerRound) run(query []float64, s *roundScratch, bufs *BufferPool) []coding.Message {
	s.parts = ensureParts(s.parts, len(r.assign), r.model.Dim())
	for k, g := range s.parts {
		vecmath.Fill(g, 0)
		r.model.SubsetGradient(query, r.units[r.assign[k]], g)
	}
	s.msgs = r.plan.EncodeInto(s.msgs[:0], r.worker, s.parts, bufs)
	return s.msgs
}

// roundScratch is the memory a caller of run reuses across rounds: the
// partial-gradient buffers and the Msgs slice. The simulator shares one
// across its workers; each real worker keeps its own.
type roundScratch struct {
	parts [][]float64
	msgs  []coding.Message
}

// ensureParts resizes a worker's partial-gradient scratch to k buffers of
// length dim, reusing existing buffers; contents are stale and are zeroed by
// run before use.
func ensureParts(scratch [][]float64, k, dim int) [][]float64 {
	if cap(scratch) < k {
		grown := make([][]float64, k)
		copy(grown, scratch[:cap(scratch)])
		scratch = grown
	}
	scratch = scratch[:k]
	for i := range scratch {
		if len(scratch[i]) != dim {
			scratch[i] = make([]float64, dim)
		}
	}
	return scratch
}
