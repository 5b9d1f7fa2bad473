package cluster

import (
	"bcc/internal/coding"
	"bcc/internal/faults"
)

// Adaptive redundancy: the engine's closed-loop re-tuning of a Retunable
// plan (coding.Retunable — today the nested code family). At the top of
// every iteration, BEFORE the query goes out, the engine hands the
// configured Controller a Telemetry snapshot and activates the level it
// returns (clamped to the family and floored at the MinResponders-safe
// level for the iteration's reachable fleet). Workers learn the level from
// the broadcast itself (ModelUpdate.Level), so an iteration is encoded and
// decoded at one agreed level on every runtime.
//
// Determinism contract: Telemetry is assembled exclusively from
// runtime-independent inputs — the deterministic fault plan's pure
// per-iteration queries and the previous
// iteration's realized threshold (itself pinned identical across runtimes
// by the conformance suite). A controller that is a pure function of its
// Telemetry sequence therefore makes the same decisions on sim, live and
// tcp, and adaptive runs stay bit-identical across runtimes. Controllers
// must not consult wall clocks, real arrival timings or other
// runtime-dependent signals.

// Controller picks the redundancy level for each iteration of a run with a
// Retunable plan. Retune is called once per iteration on the engine
// goroutine (never concurrently); the returned level is clamped to
// [MinLevel, MaxLevel] and raised to the MinResponders-safe floor before it
// is applied, so a controller may express intent without re-implementing
// the safety rails. Configs whose Plan is not Retunable ignore the
// Controller (the documented fixed-level default).
type Controller interface {
	Retune(t Telemetry) int
}

// Telemetry is the deterministic per-iteration signal a Controller decides
// from. All counts partition the fleet: a worker appears in at most one of
// Down/Lost/Slow (priority in that order).
type Telemetry struct {
	// Iter is the iteration about to run.
	Iter int
	// N is the fleet size.
	N int
	// Reachable counts workers that can contribute to this iteration's
	// decode: not crashed and not scheduled to be partitioned or dropped.
	Reachable int
	// Down counts workers the fault plan has crashed: they do no work this
	// iteration.
	Down int
	// Lost counts workers whose transmission is scheduled to be lost on the
	// master's side (partition window, drop burst or i.i.d. drop): they
	// compute but will not contribute.
	Lost int
	// Slow counts workers inside a scheduled slowdown window: they will
	// contribute, but late.
	Slow int
	// PrevHeard is the previous iteration's realized recovery threshold
	// (IterStats.WorkersHeard), 0 before the first iteration.
	PrevHeard int
	// MinLevel, MaxLevel and Level describe the Retunable family's bounds
	// and currently active level.
	MinLevel, MaxLevel, Level int
}

// gatherTelemetry assembles the iteration's controller signal from the
// fault plan's pure queries — O(n), allocation-free, and identical on every
// runtime.
func gatherTelemetry(plan *faults.Plan, n, iter, reachable, prevHeard int, rp coding.Retunable) Telemetry {
	t := Telemetry{
		Iter:      iter,
		N:         n,
		Reachable: reachable,
		PrevHeard: prevHeard,
		MinLevel:  rp.MinLevel(),
		MaxLevel:  rp.MaxLevel(),
		Level:     rp.Level(),
	}
	for w := 0; w < n; w++ {
		switch {
		case !plan.Active(w, iter):
			t.Down++
		case !plan.Contributing(w, iter):
			t.Lost++
		case plan.SlowFactor(w, iter) > 1:
			t.Slow++
		}
	}
	return t
}

// AIMDController is the built-in straggler-tracking controller: it targets
// the cheapest level whose deterministic threshold covers the observed
// straggler tail (Down + Lost + Slow workers) plus one spare — level L
// tolerates L-1 missing or late workers, so the target is tail + 2.
// Increases apply immediately (a thinning or slowing fleet must never stall
// waiting for redundancy); decreases are damped, one level per Window
// consecutive iterations of observed slack, so a single quiet round does
// not flap the code back down.
//
// The controller is a pure function of its Telemetry sequence (it reads no
// clocks and draws no randomness), so adaptive runs are bit-identical
// across the sim, live and tcp runtimes for a given (seed, scenario).
type AIMDController struct {
	// Window is how many consecutive iterations of slack precede each
	// one-level decrease (<= 0 means the default 3).
	Window int

	quiet int // consecutive iterations with target below the active level
}

// Retune implements Controller.
func (c *AIMDController) Retune(t Telemetry) int {
	window := c.Window
	if window <= 0 {
		window = 3
	}
	target := 2 + t.Down + t.Lost + t.Slow
	if target < t.MinLevel {
		target = t.MinLevel
	}
	if target > t.MaxLevel {
		target = t.MaxLevel
	}
	switch {
	case target > t.Level:
		c.quiet = 0
		return target
	case target < t.Level:
		c.quiet++
		if c.quiet >= window {
			c.quiet = 0
			return t.Level - 1
		}
		return t.Level
	default:
		c.quiet = 0
		return t.Level
	}
}
