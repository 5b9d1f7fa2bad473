package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/stats"
)

// fabricTimeout bounds accept, per-iteration starvation and the final drain
// of the traced pass (the engine's own default).
const fabricTimeout = 30 * time.Second

// traced is the outcome of the traced pass.
type traced struct {
	tracer    *tracer
	job       *core.Job
	newJob    time.Duration
	handshake time.Duration
	iters     int // traced iterations
}

// runTraced runs the workload once more with the decorators installed. It
// assembles the tcp runtime from the same exported pieces cluster.RunLive
// uses — a loopback listener, one DialAndServeWorker goroutine per worker,
// ServeMasterPool, RunWithFabric — because that is where the fabric and the
// workers' model and plan can be wrapped.
func runTraced(ctx context.Context, w workload, seed uint64, sz sizes) (*traced, error) {
	job, jobTime, err := newJob(w, seed, sz.warmup+sz.maxTimed)
	if err != nil {
		return nil, err
	}

	n := job.Spec.Workers
	tr := newTracer(n, job.Spec.Load, sz)
	plan := wrapPlan(job.Plan, tr)
	cfg := clusterConfig(job)
	cfg.Plan = plan
	cfg.Opt = wrapOptimizer(job.Opt, tr)
	cfg.Observer = cluster.ObserverFuncs{Iteration: tr.onIteration, Decode: tr.onDecode}
	opts := liveOptions(job.Spec)
	opts.Timeout = fabricTimeout
	var lat cluster.Latency = cluster.Zero{}
	if cfg.Latency != nil {
		lat = cfg.Latency
	}

	hs := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nnz := rowNNZ(job.Data.X)
	var workers sync.WaitGroup
	for i := 0; i < n; i++ {
		env := cluster.WorkerEnv{
			Index: i,
			Plan:  plan,
			Model: &tracedModel{
				workerModel: job.Model, t: tr, worker: i,
				perIter: len(plan.Assignments()[i]), rowNNZ: nnz,
			},
			Units:     job.Units,
			Latency:   lat,
			TimeScale: opts.TimeScale,
			Codec:     opts.Codec,
			Comm:      cfg.Comm,
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			// A worker's error is a broken connection; the master reports it.
			_ = cluster.DialAndServeWorker(ln.Addr().String(), env)
		}()
	}
	// On failure ServeMasterPool has closed the listener and the accepted
	// connections, which ends every worker.
	fab, err := cluster.ServeMasterPool(ln, n, fabricTimeout, opts.Codec, cfg.Buffers(), cfg.Comm, job.Model.Dim())
	if err != nil {
		workers.Wait()
		return nil, err
	}
	handshake := time.Since(hs)
	_, err = cluster.RunWithFabricContext(ctx, cfg, &tracedFabric{Fabric: fab, t: tr}, opts)
	cluster.DrainFabric(fab, fabricTimeout)
	fab.Close()
	workers.Wait()
	if err != nil {
		return nil, err
	}
	if !tr.done {
		return nil, fmt.Errorf("traced pass ended after %d iterations", len(tr.stats))
	}
	return &traced{tracer: tr, job: job, newJob: jobTime, handshake: handshake, iters: sz.maxTimed}, nil
}

// layerMetrics folds the traced pass into the per-layer metrics that come
// from spans and counters. Every "per_iter" value is a mean over the traced
// iterations; "per_worker_iter" additionally divides by the worker count.
// untracedP50 is the median of the same iterations in the untraced segment
// that ran the same seed.
func (tp *traced) layerMetrics(untracedP50 float64) map[string]metric {
	t := tp.tracer
	n := len(t.workers)
	iters := float64(tp.iters)
	var sum [numSpanKinds]time.Duration
	var count [numSpanKinds]int
	tally := func(l *lane) {
		for _, s := range l.spans {
			if s.end != 0 {
				sum[s.kind] += s.end - s.start
				count[s.kind]++
			}
		}
	}
	tally(&t.master)
	for w := range t.workers {
		tally(&t.workers[w])
	}
	usPerIter := func(k spanKind) float64 { return float64(sum[k]) / 1e3 / iters }

	var heard, wireIn, wireOut, nnz float64
	for _, st := range t.stats[t.warmup:] {
		heard += float64(st.WorkersHeard)
		wireIn += float64(st.WireBytesIn)
		wireOut += float64(st.WireBytesOut)
	}
	for _, c := range t.gradNNZ {
		nnz += float64(c)
	}
	// Every encode is one reply put on the wire; the ones the master did not
	// count toward a decode arrived after it (or for an earlier iteration).
	replies := float64(count[spanEncode])
	m0, m1 := &t.memStart, &t.memEnd
	selfUs := usPerIter(spanIteration) - usPerIter(spanBroadcast) - usPerIter(spanWait) - usPerIter(spanDecode) - usPerIter(spanUpdate)

	return map[string]metric{
		"core.newjob_ms":                     {float64(tp.newJob) / 1e6, "ms"},
		"cluster.handshake_ms":               {float64(tp.handshake) / 1e6, "ms"},
		"model.gradient_us_per_worker_iter":  {usPerIter(spanGradient) / float64(n), "us"},
		"model.gradient_nnz_per_iter":        {nnz / iters, "count"},
		"coding.encode_us_per_worker_iter":   {usPerIter(spanEncode) / float64(n), "us"},
		"coding.offer_us_per_iter":           {usPerIter(spanOffer), "us"},
		"coding.decode_us_per_iter":          {usPerIter(spanDecode), "us"},
		"coding.workers_heard_per_iter":      {heard / iters, "count"},
		"coding.useful_reply_ratio":          {heard / replies, "ratio"},
		"cluster.broadcast_us_per_iter":      {usPerIter(spanBroadcast), "us"},
		"cluster.wait_threshold_us_per_iter": {usPerIter(spanWait), "us"},
		"cluster.finish_us_per_iter":         {usPerIter(spanFinish), "us"},
		"cluster.engine_self_us_per_iter":    {selfUs, "us"},
		"cluster.stale_replies_per_iter":     {(replies - heard) / iters, "count"},
		"cluster.wire_in_bytes_per_iter":     {wireIn / iters, "B"},
		"cluster.wire_out_bytes_per_iter":    {wireOut / iters, "B"},
		"cluster.allocs_per_iter":            {float64(m1.Mallocs-m0.Mallocs) / iters, "count"},
		"cluster.alloc_bytes_per_iter":       {float64(m1.TotalAlloc-m0.TotalAlloc) / iters, "B"},
		"cluster.gc_pause_us_per_iter":       {float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3 / iters, "us"},
		"optimize.query_us_per_iter":         {usPerIter(spanQuery), "us"},
		"optimize.update_us_per_iter":        {usPerIter(spanUpdate), "us"},
		"host.tracing_overhead_pct":          {100 * (stats.Median(gapsMillis(t.stamps)) - untracedP50) / untracedP50, "%"},
	}
}
