package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/coding"
	"bcc/internal/optimize"
	"bcc/internal/vecmath"
)

// The traced pass measures each layer from outside: the decorators below wrap
// the interface seams the engine already accepts (Config.Plan, Config.Opt,
// Config.Observer, WorkerEnv.Model, WorkerEnv.Plan, the Fabric) and record one
// span per call into preallocated buffers. Nothing inside the program is
// instrumented. The engine type-asserts optional capabilities on some of
// these values, so every wrapper re-exports the capabilities its inner value
// has (see wrapPlan, wrapDecoder, wrapOptimizer).

type spanKind uint8

const (
	spanIteration spanKind = iota
	spanQuery
	spanBroadcast
	spanWait
	spanOffer
	spanFinish
	spanDecode
	spanUpdate
	spanGradient
	spanEncode
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanIteration: "cluster.iteration",
	spanQuery:     "optimize.query",
	spanBroadcast: "cluster.broadcast",
	spanWait:      "cluster.wait_threshold",
	spanOffer:     "coding.offer",
	spanFinish:    "cluster.finish",
	spanDecode:    "coding.decode",
	spanUpdate:    "optimize.update",
	spanGradient:  "model.gradient",
	spanEncode:    "coding.encode",
}

const master = -1

// span is one timed call. parent indexes the lane's own buffer; a worker
// span's parent is the master's broadcast of the same iteration, resolved by
// iteration id when the trace is written.
type span struct {
	kind       spanKind
	worker     int32
	iter       int32
	parent     int32
	start, end time.Duration // since tracer.epoch
}

// lane is the span buffer of one goroutine: the master's engine loop or one
// worker. Only that goroutine appends; the trace is read after the fabric has
// been drained and every worker has returned.
type lane struct{ spans []span }

func (l *lane) add(s span) int32 {
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

type tracer struct {
	epoch  time.Time
	warmup int // iterations before this one are run but not recorded
	last   int

	master  lane
	workers []lane

	// Master-side state, touched only on the engine goroutine.
	iter                  int
	itSpan, waitSpan, fin int32
	stats                 []cluster.IterStats
	memStart, memEnd      runtime.MemStats
	stamps                []time.Duration
	done                  bool

	// Worker-side exact counts, indexed by worker.
	gradNNZ []int64
}

func newTracer(n, perWorkerUnits int, sz sizes) *tracer {
	t := &tracer{
		epoch:   time.Now(),
		warmup:  sz.warmup,
		last:    sz.warmup + sz.maxTimed - 1,
		workers: make([]lane, n),
		gradNNZ: make([]int64, n),
		stats:   make([]cluster.IterStats, 0, sz.warmup+sz.maxTimed),
		stamps:  make([]time.Duration, 0, sz.maxTimed+1),
		itSpan:  -1, waitSpan: -1, fin: -1,
	}
	// Per iteration the master records the iteration, query, broadcast, wait,
	// finish, decode and update spans plus at most one offer per message.
	t.master.spans = make([]span, 0, sz.maxTimed*(7+2*n)+8)
	for w := range t.workers {
		t.workers[w].spans = make([]span, 0, sz.maxTimed*(perWorkerUnits+1)+8)
	}
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// recording reports whether master-side spans of the current iteration are
// kept.
func (t *tracer) recording() bool { return t.iter >= t.warmup && !t.done }

// masterSpan times fn as a child of parent.
func (t *tracer) masterSpan(kind spanKind, parent int32, fn func()) {
	if !t.recording() {
		fn()
		return
	}
	start := t.now()
	fn()
	t.master.add(span{kind: kind, worker: master, iter: int32(t.iter), parent: parent, start: start, end: t.now()})
}

// --- Observer ---------------------------------------------------------------

func (t *tracer) onDecode(cluster.DecodeEvent) {
	if !t.recording() {
		return
	}
	now := t.now()
	t.master.spans[t.waitSpan].end = now
	t.fin = t.master.add(span{kind: spanFinish, worker: master, iter: int32(t.iter), parent: t.itSpan, start: now})
}

func (t *tracer) onIteration(st cluster.IterStats) {
	now := t.now()
	t.stats = append(t.stats, st)
	if t.recording() {
		t.master.spans[t.fin].end = now
		t.master.spans[t.itSpan].end = now
	}
	if st.Iter >= t.warmup-1 && !t.done {
		t.stamps = append(t.stamps, now)
	}
	switch {
	case st.Iter == t.warmup-1:
		runtime.ReadMemStats(&t.memStart)
	case st.Iter == t.last:
		runtime.ReadMemStats(&t.memEnd)
		t.done = true
	}
	t.iter = st.Iter + 1
	if t.recording() {
		t.itSpan = t.master.add(span{kind: spanIteration, worker: master, iter: int32(t.iter), parent: -1, start: t.now()})
	}
}

// --- Fabric -----------------------------------------------------------------

// tracedFabric times Fabric.Broadcast. It forwards the measured-wire
// capability the live transport asserts for; the drain capability has an
// unexported method, so the traced pass drains the inner fabric itself after
// the run.
type tracedFabric struct {
	cluster.Fabric
	t *tracer
}

func (f *tracedFabric) Broadcast(mu cluster.ModelUpdate) error {
	if mu.Iter < 0 {
		return f.Fabric.Broadcast(mu)
	}
	var err error
	f.t.masterSpan(spanBroadcast, f.t.itSpan, func() { err = f.Fabric.Broadcast(mu) })
	if f.t.recording() {
		f.t.waitSpan = f.t.master.add(span{kind: spanWait, worker: master, iter: int32(f.t.iter), parent: f.t.itSpan, start: f.t.now()})
	}
	return err
}

type wireTotaler interface{ WireTotals() (in, out int64) }

func (f *tracedFabric) WireTotals() (in, out int64) {
	if wt, ok := f.Fabric.(wireTotaler); ok {
		return wt.WireTotals()
	}
	return 0, 0
}

// --- Plan and Decoder -------------------------------------------------------

// tracedPlan times EncodeInto on the calling worker's lane and hands out
// traced decoders.
type tracedPlan struct {
	coding.Plan
	t *tracer
	// encodes counts each worker's EncodeInto calls: barrier workers answer
	// every query in order, so the count is the iteration id.
	encodes []int
}

func (p *tracedPlan) EncodeInto(dst []coding.Message, worker int, parts [][]float64, bufs coding.Buffers) []coding.Message {
	iter := p.encodes[worker]
	p.encodes[worker]++
	if iter < p.t.warmup || iter > p.t.last {
		return p.Plan.EncodeInto(dst, worker, parts, bufs)
	}
	start := p.t.now()
	out := p.Plan.EncodeInto(dst, worker, parts, bufs)
	p.t.workers[worker].add(span{kind: spanEncode, worker: int32(worker), iter: int32(iter), parent: -1, start: start, end: p.t.now()})
	return out
}

func (p *tracedPlan) NewDecoder() coding.Decoder { return wrapDecoder(p.Plan.NewDecoder(), p.t) }

// MinResponders keeps the inner plan's exact bound visible to
// coding.MinResponders, which would otherwise fall back to the generic
// coverage argument for the wrapper.
func (p *tracedPlan) MinResponders() int { return coding.MinResponders(p.Plan) }

// tracedRetunable re-exports coding.Retunable for nested code families.
type tracedRetunable struct {
	*tracedPlan
	rp coding.Retunable
}

func (p tracedRetunable) MinLevel() int        { return p.rp.MinLevel() }
func (p tracedRetunable) MaxLevel() int        { return p.rp.MaxLevel() }
func (p tracedRetunable) Level() int           { return p.rp.Level() }
func (p tracedRetunable) SetLevel(L int) error { return p.rp.SetLevel(L) }
func (p tracedRetunable) AtLevel(L int) (coding.Plan, error) {
	lp, err := p.rp.AtLevel(L)
	if err != nil {
		return nil, err
	}
	return &tracedPlan{Plan: lp, t: p.t, encodes: p.encodes}, nil
}

func wrapPlan(inner coding.Plan, t *tracer) coding.Plan {
	_, n, _ := inner.Params()
	p := &tracedPlan{Plan: inner, t: t, encodes: make([]int, n)}
	if rp, ok := inner.(coding.Retunable); ok {
		return tracedRetunable{tracedPlan: p, rp: rp}
	}
	return p
}

type tracedDecoder struct {
	coding.Decoder
	t *tracer
}

func (d *tracedDecoder) Offer(msg coding.Message) bool {
	var ok bool
	d.t.masterSpan(spanOffer, d.t.waitSpan, func() { ok = d.Decoder.Offer(msg) })
	return ok
}

func (d *tracedDecoder) DecodeInto(dst []float64) error {
	var err error
	d.t.masterSpan(spanDecode, d.t.fin, func() { err = d.Decoder.DecodeInto(dst) })
	return err
}

// sliceCap and parallelCap forward the optional decoder capabilities the
// engine asserts for; the sharded master calls them from its shard
// goroutines, which the single master lane cannot record, so they carry no
// span.
type sliceCap struct{ sd coding.SliceDecoder }

func (c sliceCap) DecodeSliceInto(dst []float64, lo, hi int) error {
	return c.sd.DecodeSliceInto(dst, lo, hi)
}

type parallelCap struct{ pd coding.ParallelDecoder }

func (c parallelCap) SetDecodeParallelism(workers int) { c.pd.SetDecodeParallelism(workers) }

func wrapDecoder(inner coding.Decoder, t *tracer) coding.Decoder {
	d := &tracedDecoder{Decoder: inner, t: t}
	sd, slice := inner.(coding.SliceDecoder)
	pd, par := inner.(coding.ParallelDecoder)
	switch {
	case slice && par:
		return struct {
			*tracedDecoder
			sliceCap
			parallelCap
		}{d, sliceCap{sd}, parallelCap{pd}}
	case slice:
		return struct {
			*tracedDecoder
			sliceCap
		}{d, sliceCap{sd}}
	case par:
		return struct {
			*tracedDecoder
			parallelCap
		}{d, parallelCap{pd}}
	}
	return d
}

// --- Optimizer --------------------------------------------------------------

type tracedOptimizer struct {
	optimize.Optimizer
	t *tracer
}

func (o *tracedOptimizer) Query() []float64 {
	var q []float64
	o.t.masterSpan(spanQuery, o.t.itSpan, func() { q = o.Optimizer.Query() })
	return q
}

func (o *tracedOptimizer) Update(grad []float64) {
	o.t.masterSpan(spanUpdate, o.t.fin, func() { o.Optimizer.Update(grad) })
}

// tracedSliceUpdater re-exports optimize.SliceUpdater (sharded master).
type tracedSliceUpdater struct {
	*tracedOptimizer
	su optimize.SliceUpdater
}

func (o tracedSliceUpdater) UpdateSlice(grad []float64, lo, hi int) { o.su.UpdateSlice(grad, lo, hi) }
func (o tracedSliceUpdater) FinishStep()                            { o.su.FinishStep() }

func wrapOptimizer(inner optimize.Optimizer, t *tracer) optimize.Optimizer {
	o := &tracedOptimizer{Optimizer: inner, t: t}
	if su, ok := inner.(optimize.SliceUpdater); ok {
		return tracedSliceUpdater{tracedOptimizer: o, su: su}
	}
	return o
}

// --- Worker model -----------------------------------------------------------

// workerModel is the model surface cluster.WorkerEnv asks for.
type workerModel interface {
	Dim() int
	SubsetGradient(w []float64, rows []int, out []float64)
}

// tracedModel is one worker's view of the model: it times SubsetGradient and
// counts the stored entries the call touched.
type tracedModel struct {
	workerModel
	t      *tracer
	worker int
	// perIter is the worker's assignment size: a barrier worker makes that
	// many SubsetGradient calls per query, in query order.
	perIter int
	calls   int
	rowNNZ  []int32
}

func (m *tracedModel) SubsetGradient(w []float64, rows []int, out []float64) {
	iter := m.calls / m.perIter
	m.calls++
	if iter < m.t.warmup || iter > m.t.last {
		m.workerModel.SubsetGradient(w, rows, out)
		return
	}
	start := m.t.now()
	m.workerModel.SubsetGradient(w, rows, out)
	m.t.workers[m.worker].add(span{kind: spanGradient, worker: int32(m.worker), iter: int32(iter), parent: -1, start: start, end: m.t.now()})
	var nnz int64
	for _, r := range rows {
		nnz += int64(m.rowNNZ[r])
	}
	m.t.gradNNZ[m.worker] += nnz
}

// rowNNZ returns the stored-entry count of every row of x.
func rowNNZ(x vecmath.AnyMatrix) []int32 {
	rows, cols := x.Dims()
	out := make([]int32, rows)
	csr, sparse := x.(*vecmath.CSR)
	for i := range out {
		if sparse {
			out[i] = int32(csr.RowPtr[i+1] - csr.RowPtr[i])
		} else {
			out[i] = int32(cols)
		}
	}
	return out
}

// --- Trace file -------------------------------------------------------------

// traceEvent is one span in the Chrome trace-event format ("X" = complete
// event), which chrome://tracing and Perfetto open directly: tid 0 is the
// master, tid w+1 is worker w.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`  // µs since the traced pass began
	Dur  float64   `json:"dur"` // µs
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int `json:"id"`
	Iter   int `json:"iter"`
	Worker int `json:"worker"`
	Parent int `json:"parent"`
}

// writeTrace writes every closed span to path. Span ids are positions in the
// written list; parent is the id of the span that caused this one (-1 for an
// iteration).
func (t *tracer) writeTrace(path string) error {
	broadcastOf := map[int32]int{}
	var events []traceEvent
	emit := func(l *lane, tid int) {
		ids := make([]int, len(l.spans)) // lane index -> written id
		for i, s := range l.spans {
			if s.end == 0 {
				ids[i] = -1 // never closed: the run ended inside it
				continue
			}
			ids[i] = len(events)
			parent := -1
			switch {
			case s.parent >= 0:
				parent = ids[s.parent]
			case s.worker != master:
				parent = broadcastOf[s.iter]
			}
			if s.kind == spanBroadcast {
				broadcastOf[s.iter] = len(events)
			}
			events = append(events, traceEvent{
				Name: spanNames[s.kind], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: tid,
				Args: traceArgs{ID: len(events), Iter: int(s.iter), Worker: int(s.worker), Parent: parent},
			})
		}
	}
	emit(&t.master, 0)
	for w := range t.workers {
		emit(&t.workers[w], w+1)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
