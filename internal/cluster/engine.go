package cluster

import (
	"context"
	"fmt"
	"math"

	"bcc/internal/coding"
	"bcc/internal/faults"
	"bcc/internal/model"
	"bcc/internal/vecmath"
	"bcc/internal/wire"
)

// This file is the unified master engine. The per-iteration lifecycle that
// the paper's §III-C argument rests on — broadcast the query, consume worker
// arrivals, offer them to the decoder, finish the moment the gradient is
// decodable, advance the optimizer, record IterStats — is implemented once
// here and parameterized by a small Transport interface. The DES simulator
// (sim.go) and the live transport over the one connection fabric (live.go,
// tcp.go; in-process pipes or TCP sockets) are thin transports feeding this
// engine; new runtimes (async/SSP, multi-host) plug in the same way.
//
// The engine is the single point where the run lifecycle is controlled and
// observed: the caller's context cancels or deadline-bounds the run (the
// partial Result accumulated so far is returned alongside ctx.Err()),
// Config.Observer sees every decode point and finished iteration,
// Config.StopWhen ends the run early, and Config.Checkpoint persists state
// every Config.CheckpointEvery iterations.

// Transport is the master engine's view of a runtime substrate: something
// that can announce a query to the workers and hand back the resulting
// arrivals, one iteration at a time.
type Transport interface {
	// Broadcast announces iteration iter's query to every worker and
	// returns the ArrivalSource for that iteration's worker transmissions.
	// The transport may read the query until the source's Finish and keeps
	// no reference after it: the engine reuses the buffer, and the optimizer
	// its iterate, only once the iteration is over, so a transport whose
	// workers read the query later takes its own copy. The context bounds
	// the iteration: a blocking ArrivalSource.Next must return with an error
	// no later than ctx's cancellation.
	Broadcast(ctx context.Context, iter int, query []float64) (ArrivalSource, error)
	// Shutdown tells the workers the run is over (best effort). The engine
	// calls it on every exit path, including cancellation and errors.
	Shutdown()
}

// Arrival is one worker transmission as observed by the master.
type Arrival struct {
	// Worker is the sender's index.
	Worker int
	// Compute is the worker's (virtual) computation time this iteration,
	// used for the paper's computation-time metric.
	Compute float64
	// Msgs are the encoded messages to offer to the decoder. The slice (not
	// the payloads, see BufferPool) is valid until the next Next or Finish
	// call on the source that returned it.
	Msgs []coding.Message
}

// ArrivalSource yields one iteration's arrivals in the order the master
// receives them. The engine stops consuming at the decode: an iteration
// ends there on every runtime.
type ArrivalSource interface {
	// Next blocks for the next arrival. ok=false means every worker has
	// been accounted for this iteration (arrived, crashed, or had its
	// transmission dropped); a non-nil error aborts the run (timeout,
	// broken connection, cancelled context).
	Next() (arr Arrival, ok bool, err error)
	// Wall returns the iteration's elapsed time as of the last arrival
	// returned by Next — virtual seconds on the simulator, scaled real
	// seconds on the live runtimes.
	Wall() float64
	// Finish releases the source's resources (timers); the engine calls it
	// exactly once, after it stops consuming arrivals.
	Finish()
}

// RunTransport validates cfg and drives the full training run over an
// already-constructed transport. RunSim, RunLive and RunWithFabricContext all
// funnel into it; it is exported so future runtimes outside this file can
// reuse the engine unchanged.
func RunTransport(cfg *Config, tr Transport) (*Result, error) {
	return RunTransportContext(context.Background(), cfg, tr)
}

// RunTransportContext is RunTransport bounded by a context: cancellation or
// deadline expiry ends the run between arrivals and returns the iterations
// completed so far alongside ctx's error.
func RunTransportContext(ctx context.Context, cfg *Config, tr Transport) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runEngine(ctx, cfg, tr)
}

// runEngine is THE master iteration loop. Every runtime's master behaviour
// — early finish on decodability, stall detection, stats bookkeeping,
// optimizer advance, observer callbacks, early stopping, checkpointing,
// cancellation — lives here and only here.
//
// The loop owns the steady-state allocation budget of the data plane: one
// decoder reused across iterations (Reset between them), one decode buffer,
// one quantized-query buffer under the f32 codec, and the run's BufferPool
// to which every consumed message payload is returned once its iteration
// has decoded. After the first iteration warms the pool and scratch, an
// iteration allocates nothing on any runtime.
//
// On cancellation the engine returns the partial Result of the iterations
// already completed together with ctx.Err(); the in-flight iteration is
// discarded. Errors without a Result (stall, broken transport) return a nil
// Result and do not invoke Observer.OnRunEnd.
func runEngine(ctx context.Context, cfg *Config, tr Transport) (*Result, error) {
	defer tr.Shutdown()
	pool := cfg.buffers()
	iters := make([]IterStats, 0, cfg.Iterations)
	dec := cfg.Plan.NewDecoder()
	grad := make([]float64, cfg.Model.Dim())
	cp := cfg.comm()
	var qbuf []float64 // reusable quantized-query scratch (lossy codecs)
	var lossRows []int // AllRows scratch for LossEvery evaluations
	// Consumed payload buffers, recycled post-decode. Sized for an iteration
	// that hears every worker, so what a run allocates does not depend on
	// how many replies its busiest iteration took.
	used := make([][]float64, 0, cfg.iterPayloads())
	// Measured comm accounting: transports with real connections expose
	// running byte totals; the engine records per-iteration deltas. The baseline
	// snapshot here excludes the handshake frames read during accept, and
	// the deferred Shutdown excludes the shutdown frame from the last
	// iteration's delta.
	wc, _ := tr.(wireCounter)
	var prevIn, prevOut int64
	if wc != nil {
		prevIn, prevOut = wc.WireTotals()
	}
	// finish assembles the Result over the completed iterations — the full
	// run, an early-stopped prefix, or the partial progress of a cancelled
	// run — and is the single place OnRunEnd fires. On draining transports
	// it first waits for in-flight straggler frames so the measured wire
	// totals are complete and reproducible: the egress total is snapshotted
	// before the drain (the drain's own shutdown re-broadcast must not
	// count), the ingress total after it (the straggler tail must).
	finish := func() *Result {
		var drainIn, drainOut int64
		if wd, ok := tr.(wireDrainer); ok && wc != nil {
			_, outBefore := wc.WireTotals()
			wd.DrainWire()
			inAfter, _ := wc.WireTotals()
			drainIn, drainOut = inAfter-prevIn, outBefore-prevOut
		}
		res := summarize(vecmath.Clone(cfg.Opt.Iterate()), iters)
		res.TotalWireIn += int(drainIn)
		res.TotalWireOut += int(drainOut)
		if cfg.Observer != nil {
			cfg.Observer.OnRunEnd(res)
		}
		return res
	}
	// Fault-plan accounting: scheduled events are surfaced to the observer
	// at the top of each iteration, and iterations that the plan leaves
	// without enough reachable workers to possibly decode degrade
	// explicitly instead of wedging the transport.
	_, n, _ := cfg.Plan.Params()
	minResponders := coding.MinResponders(cfg.Plan)
	// Adaptive redundancy (controller.go): a Retunable plan plus a
	// configured Controller re-tunes the family's active level at the top
	// of each iteration, before the query goes out. Telemetry comes from
	// the deterministic fault plan only, so the decisions — and the run —
	// are identical on every runtime. Without a Retunable plan the
	// Controller is ignored (the documented fixed-level default).
	rp, _ := cfg.Plan.(coding.Retunable)
	ctl := cfg.Controller
	if rp == nil {
		ctl = nil
	}
	prevHeard := 0
	// degraded signals the observer that the run is about to end because
	// the gradient is unrecoverable; the one place both degrade paths
	// (fail-fast and stall) report through.
	degraded := func(iter int) {
		if cfg.Observer != nil {
			cfg.Observer.OnWorkerFault(faults.Event{Iter: iter, Kind: faults.KindDegraded, Worker: -1})
		}
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return finish(), err
		}
		if cfg.Faults != nil && cfg.Observer != nil {
			cfg.Faults.EventsAt(iter, cfg.Observer.OnWorkerFault)
		}
		reachable := reachableWorkers(cfg.Faults, n, iter)
		if reachable < minResponders {
			degraded(iter)
			return finish(), fmt.Errorf(
				"cluster: iteration %d has %d reachable workers but scheme %q cannot decode below %d: %w",
				iter, reachable, cfg.Plan.Scheme(), minResponders, ErrBelowThreshold)
		}
		if ctl != nil {
			lvl := ctl.Retune(gatherTelemetry(cfg.Faults, n, iter, reachable, prevHeard, rp))
			if lvl < rp.MinLevel() {
				lvl = rp.MinLevel()
			}
			if lvl > rp.MaxLevel() {
				lvl = rp.MaxLevel()
			}
			// MinResponders-safe floor: never activate a level whose
			// threshold exceeds the reachable fleet — fall back toward max
			// redundancy instead of stalling when the fleet thins. The
			// fail-fast above guarantees the floor fits the family.
			if floor := n - reachable + 1; lvl < floor {
				lvl = floor
				if max := rp.MaxLevel(); lvl > max {
					lvl = max
				}
			}
			if lvl != rp.Level() {
				if err := rp.SetLevel(lvl); err != nil {
					return nil, fmt.Errorf("cluster: controller picked level %d at iteration %d: %w", lvl, iter, err)
				}
			}
		}
		q := cfg.Opt.Query()
		if cp.lossyQuery() {
			// Quantize into engine-owned scratch — never the optimizer's
			// iterate in place — so every runtime broadcasts the identical
			// f32-rounded query while the master keeps full precision.
			if len(qbuf) != len(q) {
				qbuf = make([]float64, len(q))
			}
			copy(qbuf, q)
			wire.QuantizeF32(qbuf)
			q = qbuf
		}
		src, err := tr.Broadcast(ctx, iter, q)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return finish(), ctxErr
			}
			return nil, fmt.Errorf("cluster: broadcast failed at iteration %d: %w", iter, err)
		}
		dec.Reset()
		used = used[:0]
		st := IterStats{Iter: iter, Loss: math.NaN()}
		if rp != nil {
			st.Level = rp.Level()
		}
		decoded := false
		for !decoded {
			arr, ok, err := src.Next()
			if err != nil {
				src.Finish()
				if ctxErr := ctx.Err(); ctxErr != nil {
					return finish(), ctxErr
				}
				return nil, err
			}
			if !ok {
				src.Finish()
				degraded(iter)
				return nil, fmt.Errorf("%w (iteration %d)", ErrStalled, iter)
			}
			if arr.Compute > st.Compute {
				st.Compute = arr.Compute
			}
			for _, msg := range arr.Msgs {
				st.Bytes += cp.msgBytes(msg)
				dec.Offer(msg)
				// Every consumed payload goes back to the pool after this
				// iteration's decode; the decoder may hold references until
				// then.
				if msg.Vec != nil {
					used = append(used, msg.Vec)
				}
			}
			if dec.Decodable() {
				st.Wall = src.Wall()
				decoded = true
				if cfg.Observer != nil {
					cfg.Observer.OnDecode(DecodeEvent{
						Iter:         iter,
						Wall:         st.Wall,
						WorkersHeard: dec.WorkersHeard(),
						Units:        dec.UnitsReceived(),
					})
				}
			}
		}
		src.Finish()
		st.Comm = st.Wall - st.Compute
		if wc != nil {
			in, out := wc.WireTotals()
			st.WireBytesIn = int(in - prevIn)
			st.WireBytesOut = int(out - prevOut)
			prevIn, prevOut = in, out
		}
		if err := finishIteration(cfg, dec, grad, &st); err != nil {
			return nil, err
		}
		for i, b := range used {
			pool.Put(b)
			used[i] = nil
		}
		used = used[:0]
		if cfg.LossEvery > 0 && iter%cfg.LossEvery == 0 {
			if lossRows == nil {
				lossRows = model.AllRows(cfg.Model.NumExamples())
			}
			st.Loss = cfg.Model.SubsetLoss(cfg.Opt.Iterate(), lossRows) / float64(cfg.Model.NumExamples())
		}
		prevHeard = st.WorkersHeard
		iters = append(iters, st)
		if cfg.Observer != nil {
			cfg.Observer.OnIteration(st)
		}
		completed := iter + 1
		if cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil && completed%cfg.CheckpointEvery == 0 {
			if err := cfg.Checkpoint(completed); err != nil {
				return finish(), fmt.Errorf("cluster: checkpoint after %d iterations: %w", completed, err)
			}
		}
		if cfg.StopWhen != nil && cfg.StopWhen(st) {
			break
		}
	}
	return finish(), nil
}

// reachableWorkers counts the workers that can possibly contribute to
// iteration iter's decode: not crashed and not scheduled to have their
// transmission lost (partition window, drop burst or i.i.d. drop).
func reachableWorkers(plan *faults.Plan, n, iter int) int {
	reachable := 0
	for w := 0; w < n; w++ {
		if plan.Contributing(w, iter) {
			reachable++
		}
	}
	return reachable
}
