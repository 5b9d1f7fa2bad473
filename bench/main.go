// Command bench is the repository's benchmark: five closed-loop workloads
// over the product's loopback-tcp runtime, seven end-to-end metrics, and a
// traced pass that splits an iteration into per-layer numbers. README.md in
// this directory explains what is measured and why; BENCHMARK.json at the
// repository root is the contract the driver runs it by.
//
//	go run ./bench -workload compute-dense -seed 1 -seconds 20 -trace 0
//	go run ./bench -all            # every workload once, with the traced pass
//	go run ./bench -aa 3           # same-code A/A check against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"bcc/internal/stats"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
	warn     io.Writer // where the host-disturbance warning goes
}

// result is the last line a run prints: the shape the driver parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{warn: os.Stderr}
	flag.StringVar(&o.workload, "workload", "", "workload to run (see -list)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of data, placement and latency draws")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed part in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "a few iterations per workload (smoke test, numbers mean nothing)")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files")
	all := flag.Bool("all", false, "run every workload once with the traced pass")
	aa := flag.Int("aa", 0, "A/A check: run every workload 2N times as alternating sets A and B and compare their medians against the bounds")
	list := flag.Bool("list", false, "print the workload names")
	flag.Parse()
	o.trace = *trace != 0

	var err error
	switch {
	case *list:
		for _, w := range workloads() {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
	case *aa > 0:
		err = runAA(os.Stdout, *aa, o)
	case *all:
		for _, w := range workloads() {
			c := o
			c.workload, c.trace = w.name, true
			if _, cerr := runChild(c, os.Stdout); cerr != nil && err == nil {
				err = cerr
			}
		}
	default:
		var w workload
		if w, err = findWorkload(o.workload); err == nil {
			err = runOne(os.Stdout, w, o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one benchmark run: one process, one workload, one seed. It prints
// every metric it measured by name with its unit, then the result line. A run
// that errors, stalls or fails verification still prints a result line — with
// every iteration it attempted counted as failed — and returns the error, so
// the process exits non-zero.
func runOne(out io.Writer, w workload, o options) error {
	metrics, attempted, err := measure(out, w, o, w.sizes(o.seconds, o.quick))
	res := result{Correct: err == nil, Attempted: max(attempted, 1), Metrics: metrics}
	if err != nil {
		res.Failed, res.Metrics = res.Attempted, map[string]metric{}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	fmt.Fprintf(out, "iters_attempted %d  iters_failed %d\n%s\n", res.Attempted, res.Failed, line)
	return err
}

// measure runs the timed pass, the traced pass when asked for, and the
// verification. It returns the metrics the result line must carry — the
// end-to-end ones, or with o.trace the per-layer ones — and the number of
// timed iterations the run got through.
func measure(out io.Writer, w workload, o options, sz sizes) (metrics map[string]metric, timed int, err error) {
	ctx := context.Background()
	probe := hostProbe(nil)

	var segs []*segment
	for i := 0; i < sz.segments; i++ {
		seg, err := runSegment(ctx, w, segmentSeed(o.seed, i), sz)
		if err != nil {
			return nil, timed, fmt.Errorf("%s segment %d: %w", w.name, i, err)
		}
		segs = append(segs, seg)
		timed += len(seg.iterMs)
	}
	host := hostMetrics(hostProbe(probe))
	if share := host["host.calib_disturbed_share"].Value; share > 0.5 {
		fmt.Fprintf(o.warn, "bench: warning: %.0f%% of the host probe slices ran more than 10%% slow; this run is noisy\n", 100*share)
	}
	e2e := endToEnd(w, segs)
	fmt.Fprintf(out, "== %s  seed %d  %d segments of %d warm-up iterations + %v timed: %d samples\n",
		w.name, o.seed, sz.segments, sz.warmup, sz.budget.Round(time.Millisecond), timed)
	printMetrics(out, e2e)
	metrics = e2e

	var tp *traced
	if o.trace {
		// A sixth of the timed iterations, under the first segment's seed.
		tsz := sz
		tsz.maxTimed = max(timed/6, verifyIters)
		if tp, err = runTraced(ctx, w, segs[0].seed, tsz); err != nil {
			return nil, timed, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		// Tracing overhead compares like with like: the same seed, hence the
		// same placement, over the same iterations of the training trajectory.
		same := segs[0].iterMs[:min(tp.iters, len(segs[0].iterMs))]
		layers := tp.layerMetrics(stats.Median(same))
		replay, err := replayMetrics(tp.job)
		if err != nil {
			return nil, timed, fmt.Errorf("%s replay: %w", w.name, err)
		}
		maps.Copy(layers, replay)
		maps.Copy(layers, host)
		fmt.Fprintf(out, "-- per layer (traced pass, %d iterations)\n", tp.iters)
		printMetrics(out, layers)
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		if err := tp.tracer.writeTrace(path); err != nil {
			return nil, timed, err
		}
		fmt.Fprintf(out, "trace written to %s\n", path)
		metrics = layers
	}

	// Verification, outside every timed region.
	for i, seg := range segs {
		if err := verifyRun(w, seg.seed, seg.gradNorms, seg.heard); err != nil {
			return nil, timed, fmt.Errorf("%s segment %d failed verification: %w", w.name, i, err)
		}
	}
	if tp != nil {
		if err := tp.verify(w, segs[0]); err != nil {
			return nil, timed, fmt.Errorf("%s traced pass failed verification: %w", w.name, err)
		}
	}
	return metrics, timed, nil
}

// verify checks the traced pass like a timed segment and, where the code is
// deterministic in the arrival order, that the decorators changed nothing:
// its gradient norms equal the untraced first segment's bit for bit.
func (tp *traced) verify(w workload, first *segment) error {
	t := tp.tracer
	norms := make([]float64, len(t.stats))
	heard := make([]int, len(t.stats))
	for i, st := range t.stats {
		norms[i], heard[i] = st.GradNorm, st.WorkersHeard
	}
	if err := verifyRun(w, first.seed, norms, heard); err != nil {
		return err
	}
	if w.gradNormTol == 0 {
		for i := 0; i < len(norms) && i < len(first.gradNorms); i++ {
			if norms[i] != first.gradNorms[i] {
				return fmt.Errorf("iteration %d: GradNorm %v traced, %v untraced", i, norms[i], first.gradNorms[i])
			}
		}
	}
	return nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(out, "  %-36s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does — the rule the
// driver judges run-to-run spread by. len(xs) must be at least 2.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
