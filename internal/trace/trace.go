// Package trace captures per-iteration timelines from the simulated cluster
// runtime — when each worker computed and uploaded, and when the master
// drained its message — and renders them as ASCII Gantt
// charts. It exists to make straggler behaviour *visible*: one glance at a
// BCC iteration shows the master cutting off the tail, where the uncoded
// chart shows it pinned to the slowest worker.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// WorkerSpan is one worker's activity within one iteration, in seconds
// relative to the iteration start.
type WorkerSpan struct {
	Worker int
	// ComputeEnd is when the local gradient computation, which starts at 0,
	// finished.
	ComputeEnd float64
	// Arrive is when the upload reached the master.
	Arrive float64
	// DrainStart/DrainEnd bracket the master's ingress occupancy for this
	// worker's messages (equal to Arrive when ingress is free/disabled).
	DrainStart, DrainEnd float64
	// Counted reports whether the message was consumed before the decoder
	// finished (i.e. the worker is part of the realized recovery set).
	Counted bool
	// Units is the communication load of the worker's transmission.
	Units float64
}

// Iteration is one recorded iteration.
type Iteration struct {
	Iter       int
	DecodeTime float64 // iteration wall time
	Spans      []WorkerSpan
}

// Recorder accumulates iterations. The zero value is ready to use. The sim
// transport fills it when Config.Trace is set, one Iteration per decoded
// iteration; the live runtimes do not trace (their timing is wall-clock,
// not modelled).
type Recorder struct {
	Iterations []Iteration
}

// Add appends one iteration record.
func (r *Recorder) Add(it Iteration) { r.Iterations = append(r.Iterations, it) }

// Len returns the number of recorded iterations.
func (r *Recorder) Len() int { return len(r.Iterations) }

// Gantt renders iteration index i as an ASCII chart `width` characters
// wide. Row symbols:
//
//	c  local gradient computation
//	u  upload in flight
//	q  queued at the master (waiting for the ingress link)
//	D  draining into the decoder
//	.  idle / after this worker's activity
//
// A '|' column marks the decode time; rows are sorted by arrival, counted
// workers first, and suffixed with '*' when counted.
func (r *Recorder) Gantt(i, width int) (string, error) {
	if i < 0 || i >= len(r.Iterations) {
		return "", fmt.Errorf("trace: iteration %d of %d", i, len(r.Iterations))
	}
	if width < 20 {
		width = 20
	}
	it := r.Iterations[i]
	if len(it.Spans) == 0 {
		return "", fmt.Errorf("trace: iteration %d has no spans", i)
	}
	horizon := it.DecodeTime
	for _, s := range it.Spans {
		if s.DrainEnd > horizon {
			horizon = s.DrainEnd
		}
	}
	if horizon <= 0 {
		horizon = 1
	}
	col := func(t float64) int {
		c := int(t / horizon * float64(width))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}
	spans := append([]WorkerSpan(nil), it.Spans...)
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].Counted != spans[b].Counted {
			return spans[a].Counted
		}
		return spans[a].Arrive < spans[b].Arrive
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "iteration %d: decode at %.4gs, %d workers (counted first, * = counted)\n",
		it.Iter, it.DecodeTime, len(spans))
	decodeCol := col(it.DecodeTime)
	for _, s := range spans {
		row := make([]byte, width)
		for j := range row {
			row[j] = '.'
		}
		paint := func(from, to float64, ch byte) {
			a, b := col(from), col(to)
			if b == a && b < width {
				b = a + 1 // make very short phases visible
			}
			for j := a; j < b && j < width; j++ {
				row[j] = ch
			}
		}
		paint(0, s.ComputeEnd, 'c')
		paint(s.ComputeEnd, s.Arrive, 'u')
		paint(s.Arrive, s.DrainStart, 'q')
		paint(s.DrainStart, s.DrainEnd, 'D')
		if decodeCol < width {
			row[decodeCol] = '|'
		}
		mark := " "
		if s.Counted {
			mark = "*"
		}
		fmt.Fprintf(&sb, "w%03d%s %s\n", s.Worker, mark, string(row))
	}
	return sb.String(), nil
}

// Summary returns per-iteration one-liners: decode time, counted workers,
// and the last counted arrival vs the slowest arrival (the straggler gap).
func (r *Recorder) Summary() string {
	var sb strings.Builder
	for _, it := range r.Iterations {
		counted := 0
		var lastCounted, slowest float64
		for _, s := range it.Spans {
			if s.Counted {
				counted++
				if s.Arrive > lastCounted {
					lastCounted = s.Arrive
				}
			}
			if s.Arrive > slowest {
				slowest = s.Arrive
			}
		}
		fmt.Fprintf(&sb, "iter %3d: wall %.4gs, counted %d/%d, straggler gap %.4gs\n",
			it.Iter, it.DecodeTime, counted, len(it.Spans), slowest-lastCounted)
	}
	return sb.String()
}
