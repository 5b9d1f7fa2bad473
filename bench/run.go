package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/stats"
)

// sizes fixes how long one run measures.
type sizes struct {
	segments int
	warmup   int // untimed iterations opening each segment
	// budget is the length of a segment's timed part: the segment ends with
	// the first iteration that completes after it. The length is a clock, not
	// a count, because the reference host's speed drifts by tens of percent
	// from minute to minute and the driver caps the total time of its runs.
	budget time.Duration
	// maxTimed caps the timed iterations of a segment; it sizes every
	// preallocated buffer, and the engine's own, so it is a fixed function of
	// -seconds. The traced pass and -quick runs end by this count.
	maxTimed int
}

func (w workload) sizes(seconds float64, quick bool) sizes {
	if quick {
		return sizes{segments: 1, warmup: 2, budget: time.Hour, maxTimed: 24}
	}
	perSeg := seconds / segments
	return sizes{
		segments: segments,
		warmup:   w.warmup,
		budget:   time.Duration(perSeg * float64(time.Second)),
		maxTimed: int(math.Ceil(3*w.itersPerSec*perSeg)) + verifyIters,
	}
}

// stamper is the only thing the timed pass adds to the system under test: an
// OnIteration observer that stamps the clock into a preallocated slice.
// Iteration wall is the gap between consecutive stamps; the stamp that closes
// the last warm-up iteration opens the timed part.
type stamper struct {
	epoch  time.Time // segment start; stamps count from it
	warmup int
	last   int // index of the last iteration the engine will run
	budget time.Duration

	stamps    []time.Duration
	cpuStart  time.Duration
	cpuEnd    time.Duration
	heapLive  uint64
	gradNorms []float64 // every iteration, warm-up included
	heard     []int
	done      bool
}

func newStamper(epoch time.Time, sz sizes) *stamper {
	total := sz.warmup + sz.maxTimed
	return &stamper{
		epoch:     epoch,
		warmup:    sz.warmup,
		last:      total - 1,
		budget:    sz.budget,
		stamps:    make([]time.Duration, 0, sz.maxTimed+1),
		gradNorms: make([]float64, 0, total),
		heard:     make([]int, 0, total),
	}
}

func (s *stamper) onIteration(st cluster.IterStats) {
	now := time.Since(s.epoch)
	s.gradNorms = append(s.gradNorms, st.GradNorm)
	s.heard = append(s.heard, st.WorkersHeard)
	if st.Iter < s.warmup-1 {
		return
	}
	s.stamps = append(s.stamps, now)
	if st.Iter == s.warmup-1 {
		s.cpuStart = processCPU()
		return
	}
	if st.Iter == s.last || now-s.stamps[0] >= s.budget {
		s.cpuEnd = processCPU()
		// The fabric is still up here, so the live heap is the run's
		// steady-state retention: data, pools, connection buffers.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heapLive = ms.HeapAlloc
		s.done = true
	}
}

// gapsMillis returns the gaps between consecutive stamps in ms.
func gapsMillis(stamps []time.Duration) []float64 {
	out := make([]float64, 0, len(stamps))
	for i := 1; i < len(stamps); i++ {
		out = append(out, float64(stamps[i]-stamps[i-1])/1e6)
	}
	return out
}

// processCPU is the process's user+system CPU time: master and every worker
// run in this process, so it is the cost of the whole cluster.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// segment is what one job of a run measured.
type segment struct {
	seed      uint64
	setup     time.Duration // segment start -> first timed iteration
	wall      time.Duration // timed part
	cpu       time.Duration // process CPU over the timed part
	ran       int           // iterations run, warm-up included
	wireBytes int
	heapLive  uint64
	iterMs    []float64 // timed iteration walls in ms
	gradNorms []float64
	heard     []int
}

// newJob materializes the workload's job for one seed and reports how long
// that took (data generation and placement).
func newJob(w workload, seed uint64, iterations int) (*core.Job, time.Duration, error) {
	start := time.Now()
	spec, err := w.jobSpec(seed, iterations, core.RuntimeTCP)
	if err != nil {
		return nil, 0, err
	}
	job, err := core.NewJob(spec)
	return job, time.Since(start), err
}

// runSegment builds one job from seed and runs it over the product's tcp
// runtime with only the stamper attached.
func runSegment(ctx context.Context, w workload, seed uint64, sz sizes) (*segment, error) {
	st := newStamper(time.Now(), sz)
	job, _, err := newJob(w, seed, sz.warmup+sz.maxTimed)
	if err != nil {
		return nil, err
	}
	cfg := clusterConfig(job)
	cfg.Observer = cluster.ObserverFuncs{Iteration: st.onIteration}
	cfg.StopWhen = func(cluster.IterStats) bool { return st.done }
	res, err := cluster.RunLiveContext(ctx, cfg, liveOptions(job.Spec))
	if err != nil {
		return nil, err
	}
	if !st.done {
		return nil, fmt.Errorf("run ended after %d iterations without finishing its timed part", len(res.Iters))
	}
	return &segment{
		seed:      seed,
		setup:     st.stamps[0],
		wall:      st.stamps[len(st.stamps)-1] - st.stamps[0],
		cpu:       st.cpuEnd - st.cpuStart,
		ran:       len(res.Iters),
		wireBytes: res.TotalWireIn + res.TotalWireOut,
		heapLive:  st.heapLive,
		iterMs:    gapsMillis(st.stamps),
		gradNorms: st.gradNorms,
		heard:     st.heard,
	}, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// p90Window is the number of consecutive iterations one tail sample is taken
// over: enough that ten lie beyond the 90th percentile.
const p90Window = 100

// windowP90s appends the 90th percentile of every full p90Window-iteration
// window of ms to dst; a slice shorter than one window is one window.
func windowP90s(dst, ms []float64) []float64 {
	if len(ms) < p90Window {
		return append(dst, stats.Quantile(ms, 0.9))
	}
	for lo := 0; lo+p90Window <= len(ms); lo += p90Window {
		dst = append(dst, stats.Quantile(ms[lo:lo+p90Window], 0.9))
	}
	return dst
}

// endToEnd folds a run's segments into the seven end-to-end metrics. The
// median pools the timed iterations of all segments. The tail is the median,
// over 100-iteration windows, of each window's 90th percentile: the host
// slows down in episodes of seconds covering a varying share of a run, and
// the 90th percentile of the pooled iterations measures mostly how large
// that share happened to be, while the typical window's tail stays with the
// program (straggler waits, GC pauses) until most windows are disturbed.
// Set-up time and live heap, which a segment has one of, are medians.
func endToEnd(w workload, segs []*segment) map[string]metric {
	var wall, cpu time.Duration
	var ran, wire int
	var all, p90s, setups, heaps []float64
	for _, s := range segs {
		wall += s.wall
		cpu += s.cpu
		ran += s.ran
		wire += s.wireBytes
		all = append(all, s.iterMs...)
		p90s = windowP90s(p90s, s.iterMs)
		setups = append(setups, s.setup.Seconds())
		heaps = append(heaps, float64(s.heapLive)/(1<<20))
	}
	return map[string]metric{
		"setup_s":             {stats.Median(setups), "s"},
		"iter_ms_p50":         {stats.Median(all), "ms"},
		"iter_ms_p90":         {stats.Median(p90s), "ms"},
		"datapoints_per_s":    {float64(w.spec.DataPoints) * float64(len(all)) / wall.Seconds(), "1/s"},
		"cpu_ms_per_iter":     {float64(cpu) / 1e6 / float64(len(all)), "ms"},
		"wire_bytes_per_iter": {float64(wire) / float64(ran), "B"},
		"heap_live_mb":        {stats.Median(heaps), "MB"},
	}
}
