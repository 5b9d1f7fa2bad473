// Package bcc is a Go implementation of "Near-Optimal Straggler Mitigation
// for Distributed Gradient Methods" (Li, Mousavi Kalan, Avestimehr,
// Soltanolkotabi — IPPS 2018, arXiv:1710.09990): the Batched Coupon's
// Collector (BCC) scheme for straggler-robust distributed gradient descent,
// together with the baselines and competing gradient-coding schemes the
// paper evaluates against, a master/worker execution fabric (discrete-event
// simulated, in-process pipes, or real TCP sockets), and the
// heterogeneous-cluster extension of the paper's §IV.
//
// # The problem
//
// Distributed gradient descent splits m training examples over n workers;
// each iteration the master broadcasts the model, workers return partial
// gradients, and the slowest responders (stragglers) gate the iteration.
// A scheme's quality is captured by its computational load r (examples per
// worker), recovery threshold K (workers the master must hear from), and
// communication load L (gradient-sized messages received).
//
// BCC partitions the data into ceil(m/r) batches; every worker independently
// picks one batch at random and ships the SUM of its partial gradients.
// Collecting batches at the master is then a coupon-collector process, so
// K_BCC = ceil(m/r) * H_{ceil(m/r)} ~ (m/r) log(m/r) — within a log factor
// of the information-theoretic minimum m/r — while each worker transmits a
// single unit-size message (Theorem 1 of the paper).
//
// # Quick start
//
//	job, err := bcc.NewJob(bcc.Spec{
//		Examples:   50,          // m data batches
//		Workers:    50,          // n workers
//		Load:       10,          // r batches per worker
//		Scheme:     "bcc",       // or uncoded, cyclicrep, fractional, randomized
//		Iterations: 100,
//		Seed:       1,
//	})
//	if err != nil { ... }
//	res, err := job.Run()
//	fmt.Println(res.AvgWorkersHeard, res.TotalWall)
//
// # Architecture: one engine, pluggable transports
//
// A single event-driven master engine owns the per-iteration lifecycle
// (broadcast query, consume arrivals, offer to the decoder, finish early on
// decodability, advance the optimizer, record stats). The three runtimes —
// Spec.Runtime RuntimeSim (discrete-event simulated), RuntimeLive (one
// goroutine per worker, speaking the wire protocol over in-process pipes)
// and RuntimeTCP (the same protocol over real loopback sockets) — are thin
// transports feeding that
// engine, so recovery thresholds and comm loads are identical across them
// for the same spec and seed. On every runtime the next query is broadcast
// once an iteration has decoded and workers drop straggler work still in
// flight for an older one, so a straggler never carries a backlog into the
// next round. Every iteration ends at its decode, and Result.TotalWall sums
// those decode instants.
//
// # Run lifecycle: contexts, observers, early stopping
//
// Because the lifecycle lives in one engine, it is controlled and observed
// in one place, identically on every runtime:
//
//   - Job.RunContext / TrainContext bound a run by a context. Cancellation
//     or deadline expiry ends the run between arrivals — even while the
//     live master blocks on a straggler — returning the partial Result of
//     the completed iterations alongside ctx.Err(); worker goroutines and
//     TCP listeners are torn down on every exit path. Job.Run and Train
//     remain the unbounded equivalents.
//   - Spec.Observer receives synchronous callbacks from the engine loop:
//     OnDecode at the instant an iteration's gradient becomes decodable
//     (the recovery-threshold moment), OnIteration after each completed
//     iteration with the exact IterStats that lands in Result.Iters, and
//     OnRunEnd with the final (possibly partial) Result. Build observers
//     from ObserverFuncs and compose them with CombineObservers.
//   - Spec.StopWhen and Spec.GradNormTol stop a run early — after the first
//     iteration satisfying the predicate, or once the decoded gradient norm
//     reaches the tolerance — returning the shorter Result without error.
//   - Spec.CheckpointEvery plus Spec.CheckpointPath auto-checkpoint the
//     optimizer during the run (atomic write, see Job.Checkpoint); a
//     crashed run resumes from the newest checkpoint via
//     Job.RestoreCheckpoint, bit-for-bit.
//
// # Fault injection: deterministic and replayable
//
// A FaultPlan on Spec.Faults is the one fault input. It schedules
// per-worker, per-iteration fault events: crashes with optional
// restart-after-k (FaultCrash; a worker that never responds is a crash at
// iteration 0), transient — optionally recurring — slowdown windows
// multiplying a worker's compute/upload latency (FaultSlowdown), master-side
// partition windows over contiguous worker ranges (FaultPartition),
// correlated drop bursts (FaultDropBursts) and i.i.d. message loss
// (FaultPlan.Drop). Every decision is a pure function of the plan's rules
// and a single seed — nothing is drawn at query time — so the sim, live and
// tcp runtimes replay bit-identical fault sequences, which the scenario
// conformance suite pins (identical iterates and fault-event traces across
// runtimes).
//
// Spec.FaultScenario selects a named scenario from the library instead:
// steady, slow-decile, flaky-tail, rolling-restart, partition, burst-drop
// (FaultScenarios lists them; bcctrain exposes them as -faults). A scenario
// is built for the job's cluster size from (name, n, seed), so separate
// processes holding the same spec agree on the schedule.
//
// Scheduled events are delivered to Observer.OnWorkerFault as FaultEvents
// in a deterministic order. When faults — drops included — leave an
// iteration with fewer reachable workers than the scheme can possibly decode
// from (the converse bound coding.MinResponders), the run degrades
// explicitly: ErrBelowThreshold (wrapping ErrStalled), the completed
// iterations as a partial Result, and a "degraded" fault event — instead of
// wedging the transport until its timeout. A stall the count cannot predict
// (enough workers reachable, but some data left uncovered) is detected after
// the fact and returns ErrStalled with the same event.
//
// Scheme, Optimizer and Runtime are typed option values with declared
// constants (SchemeBCC, OptimizerNesterov, RuntimeSim, ...) validated
// against their registries at NewJob time; any misconfiguration — unknown
// names, an invalid or mis-sized FaultPlan — fails fast with a single error
// shape, *OptionError (inspect with errors.As). Plain string literals still
// assign to these fields, so Spec literals compile unchanged; note one
// breaking rename, though: bcc.Scheme previously aliased the plan-builder
// interface, which now lives under bcc.SchemeBuilder.
//
// # Adaptive redundancy: nested gradient codes
//
// A fixed gradient code pays its straggler protection every iteration.
// Scheme "nested" (SchemeNested, requires m == n) instead builds a complete
// cyclic gradient code at EVERY redundancy level L = 1..r over one shared
// data placement — worker w holds the cyclic window of its r units, level L
// uses the first L of them and tolerates any L-1 stragglers (deterministic
// threshold n-L+1). The levels are prefix-nested, so re-tuning the level
// between iterations moves no data: a worker computes a longer or shorter
// prefix of what it already holds.
//
// Spec.AdaptRedundancy hooks the AIMD redundancy controller onto the engine
// loop (CLI: -adapt on bcctrain): before each broadcast it reads
// the iteration's fault telemetry — down, unreachable and slowed workers per
// the fault plan — and re-tunes the level, jumping up immediately when
// stragglers appear and stepping down one level after Spec.AdaptWindow
// consecutive quiet iterations (default 3). Because the controller consults
// only the plan's pure per-iteration schedule (never clocks), the level
// trajectory is a pure function of (spec, seed, scenario), and adaptive runs
// are bit-identical across sim, live and tcp — each
// broadcast stamps its level, so remote workers encode at exactly the level
// the master decodes. IterStats.Level records the trajectory,
// Result.LevelSwitches counts re-tunes, and service jobs export both on
// /metrics. Custom policies implement the bcc.Controller interface; the
// plan-side capability is bcc.RetunablePlan.
//
// # Performance: pooled buffers and in-place kernels
//
// The iteration data plane is allocation-free in steady state: message
// payload buffers are owned by a per-run pool, encoders write batch sums
// directly into pooled buffers (Plan.EncodeInto), one decoder per run is
// Reset between iterations and decodes in place (Decoder.DecodeInto), and
// the engine returns every consumed payload to the pool after each decode.
// The linear-coded schemes additionally cache their decode-coefficient
// solves on the Plan, keyed by the responder set (order-independent, with
// coefficients stored per worker), so the steady state solves no linear
// systems at all. On the sim runtime this amounts to 0 heap
// allocations per worker message, and on the in-process TCP runtime to 0
// per iteration (asserted by the allocation-regression tests and the CI
// benchmark smoke).
//
// Ownership rule of thumb: whoever takes a payload buffer out of
// circulation recycles it — the engine after a decode, the transport for
// dropped/stale/post-decode messages, the TCP worker's send path once a
// frame is serialized, its worker loop once a query is computed on.
// Decoders only borrow buffers between Offer and DecodeInto/Reset; a
// Broadcast consumes the query before it returns. Run
//
//	go test -run '^$' -bench 'BenchmarkDecode|BenchmarkRuntimes' -benchtime 100x .
//
// to see ns/op and allocs/op per scheme and per runtime. End-to-end numbers
// come from the bench harness, go run ./bench (see bench/README.md).
//
// # Performance: the sparse compute plane
//
// Gradients evaluate against the vecmath.AnyMatrix abstraction: dense
// row-major storage (DenseMatrix) or compressed sparse rows (CSRMatrix)
// whose row kernels range over each row's index and value subslices and
// cost O(nnz) instead of O(rows*p). Spec.Density draws a
// seeded sparse synthetic dataset; LoadLIBSVM reads the standard sparse
// interchange format straight into CSR and NewJobWithData trains on it.
// The CSR kernels are bit-identical to the dense sweeps on matrices
// holding the same nonzeros, so runtime conformance and checkpoint
// compatibility are storage-independent. The logistic gradient, the one
// model a job builds, takes its rows four at a time through the blocked
// RowDot4/RowAxpy4 kernels, which on dense storage read each query and
// gradient element once per four rows and still fold every row's dot in
// column order, bit for bit; on CSR they are four single-row calls.
//
// Each worker computes its gradients on one goroutine, and the master
// decodes and updates on one: the decode is one linear pass over the K
// replies it waited for, small next to that wait.
//
// # The comm plane: payload codecs, chunked frames, measured bytes
//
// What crosses the wire each iteration is controlled by a pluggable payload
// codec, Spec.Payload (CLI: -codec on bcctrain):
//
//   - PayloadRaw64 (default): dense float64 payloads, bit-exact — every
//     conformance golden and checkpoint is unchanged under it.
//   - PayloadF32: query and reply vectors quantized to float32 on the wire
//     (~2x smaller). The canonical transform float64(float32(v)) is applied
//     by EVERY runtime — the simulator right after encoding, live and tcp
//     in the wire serializer — so a given (spec, seed, codec) decodes to
//     bit-identical iterates whether or not bytes are framed.
//   - PayloadTopK: each reply vector keeps only its K largest-magnitude
//     coordinates (Spec.TopK, default ceil(p/16)) as sorted index+value
//     pairs; selection runs on raw float64 magnitudes with ties broken
//     toward the lower index, so all runtimes keep the same set. Queries
//     stay dense (sparsifying the iterate would change the algorithm).
//
// In the live and tcp runtimes' compact binary frames, payload vectors are
// staged in fixed-size chunks (default 512 elements = 4 KiB; raw64 vectors
// move as byte views of the float64 slices on little-endian hosts);
// chunking is pure staging — the byte stream and the results are identical
// for every chunk size, so the deprecated Spec.WireChunk has no effect. The
// handshake carries the worker index, codec, K and chunk size and rejects
// mismatched processes and a bad or duplicate index at connect time; a reply
// that claims another sender, a payload of the wrong length or a load other
// than one unit ends its connection's reads. The simulator models the reduced payload: upload and
// ingress-drain latencies scale by the codec's byte fraction.
//
// Accounting is split honestly in Result: IterStats.Bytes/Result.TotalBytes
// stay the modelled payload byte counts (codec-aware, comparable across all
// runtimes), while IterStats.WireBytesIn/Out and Result.TotalWireIn/Out
// report bytes MEASURED at the connection — framing included — on the live
// (pipe) and tcp (socket) runtimes, and zero on the simulator. The lossy
// codecs preserve the zero steady-state-allocation invariant (selection
// scratch and staging buffers are per-connection and reused). On a
// zero-latency loopback the byte savings buy no transfer time (f32 is free;
// top-K selection costs O(p) per reply); the latency win of smaller
// payloads appears when transfer time is real, which the simulator models
// by scaling upload/ingress latency with the byte fraction.
//
// # Running as a service
//
// The package also runs as a long-lived multi-tenant daemon (bccserve,
// or StartService in-process): a master accepting job submissions over the
// wire protocol, running each job on its own engine instance, and leasing
// workers to TCP jobs from one shared fleet.
//
//	bccserve -addr 127.0.0.1:9788 -http 127.0.0.1:9789 -workers 4 &
//	bcctrain -submit 127.0.0.1:9788 -scheme bcc -m 12 -n 4 -r 3 -runtime tcp
//	curl http://127.0.0.1:9789/metrics
//
// The job lifecycle is queued -> running -> done|failed|canceled|degraded
// (JobState). Admission is strictly FIFO: the head job starts when enough
// fleet workers are idle (sim/live jobs need none and run on daemon-local
// goroutines); leases release on every exit path — completion, Cancel,
// degrade below the recovery threshold, worker crash — so queued jobs start
// without restarting workers. Tenants are isolated: each job gets its own
// BufferPool (bounded by ServiceOptions.PoolCap), seed-derived RNG streams,
// fault plan, comm-plane configuration and a private data-plane listener,
// so concurrent jobs decode bit-identically to solo runs of the same spec.
// Specs travel as serialized bytes (EncodeSpec/DecodeSpec); process-local
// fields — Latency models, Observer hooks, StopWhen closures, trace
// recorders, checkpoint paths — are rejected at submission. Fleet workers
// rebuild each assigned job deterministically from the spec in its lease,
// so they need no configuration beyond the daemon address
// (ServeFleetWorker, or bccserve -join).
//
// The HTTP surface (ServiceOptions.HTTPAddr) serves /jobs, /jobs/{id},
// /workers, /healthz as JSON and /metrics in Prometheus text format (job
// states, queue depth, worker states, iteration and measured wire-byte
// totals, queue/run seconds). SIGTERM — or Service.Drain — rejects new
// submissions, cancels queued jobs, and gives running jobs a grace period
// to finish before canceling them, keeping their partial results.
//
// # Reproducing the paper
//
// Every table and figure of the paper regenerates through RunExperiment or
// the bccbench command:
//
//	bccbench -exp all          # fig2, fig4, table1, table2, fig5 + extras
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package bcc
