package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"bcc/internal/coding"
	"bcc/internal/core"
	"bcc/internal/optimize"
	"bcc/internal/rngutil"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("three values: got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("two values: got %v %v %v", q1, med, q3)
	}
}

func TestEndToEndAggregation(t *testing.T) {
	w := workload{spec: core.Spec{DataPoints: 100}}
	ramp := func(lo, hi int) []float64 {
		var out []float64
		for i := lo; i <= hi; i++ {
			out = append(out, float64(i))
		}
		return out
	}
	segs := []*segment{
		{setup: 1 * time.Second, wall: 2 * time.Second, cpu: 3 * time.Second, ran: 12, wireBytes: 1200, heapLive: 4 << 20, iterMs: ramp(1, 10)},
		{setup: 3 * time.Second, wall: 2 * time.Second, cpu: 1 * time.Second, ran: 12, wireBytes: 1200, heapLive: 8 << 20, iterMs: ramp(11, 20)},
		{setup: 2 * time.Second, wall: 1 * time.Second, cpu: 2 * time.Second, ran: 7, wireBytes: 700, heapLive: 6 << 20, iterMs: ramp(21, 25)},
	}
	got := endToEnd(w, segs)
	want := map[string]float64{
		"setup_s":             2,              // median of 1, 3, 2
		"iter_ms_p50":         13,             // median of 1..25
		"iter_ms_p90":         19.1,           // median of the segments' p90s: 9.1, 19.1, 24.6
		"datapoints_per_s":    100 * 25 / 5.0, // all timed iterations over all timed wall
		"cpu_ms_per_iter":     6000.0 / 25,    // all CPU over all timed iterations
		"wire_bytes_per_iter": 3100.0 / 31,    // warm-up iterations carry bytes too
		"heap_live_mb":        6,              // median
	}
	for name, v := range want {
		if g := got[name].Value; math.Abs(g-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, g, v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("endToEnd reports %d metrics, want %d", len(got), len(want))
	}
}

func TestWindowP90s(t *testing.T) {
	ms := make([]float64, 250)
	for i := range ms {
		ms[i] = float64(i % 100) // every full window holds 0..99
	}
	got := windowP90s(nil, ms)
	if len(got) != 2 || math.Abs(got[0]-89.1) > 1e-9 || math.Abs(got[1]-89.1) > 1e-9 {
		t.Errorf("two full windows of 0..99, the 50-iteration rest dropped: got %v", got)
	}
	if got = windowP90s(nil, ms[:11]); len(got) != 1 || got[0] != 9 {
		t.Errorf("a short slice is one window: got %v", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests cross-check.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []bound `json:"end_to_end"`
	PerLayer   []bound `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func sortedNames(bs []bound) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: program reports %v, BENCHMARK.json lists %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: program reports %v, BENCHMARK.json lists %v", what, got, want)
		}
	}
}

// TestQuickSmoke runs every workload end to end at -quick size — timed pass,
// traced pass, replays, verification, trace file — and checks that what the
// program reports is what BENCHMARK.json declares, name for name and unit
// for unit.
func TestQuickSmoke(t *testing.T) {
	file := loadBenchmarkFile(t)
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", file.RunSeconds, defaultSeconds)
	}
	units := map[string]string{}
	for _, b := range append(append([]bound(nil), file.EndToEnd...), file.PerLayer...) {
		units[b.Name] = b.Unit
	}
	var listed []string
	for _, fw := range file.Workloads {
		listed = append(listed, fw.Name)
		w, err := findWorkload(fw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.why != fw.Why {
			t.Errorf("%s: why differs between BENCHMARK.json and workloads.go", fw.Name)
		}
	}
	if len(listed) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists workloads %v, program has %d", listed, len(workloads()))
	}

	out := t.TempDir()
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			if !trace && w.name != "compute-dense" {
				continue // the traced run covers the untraced pass too
			}
			o := options{workload: w.name, seed: 7, seconds: defaultSeconds, trace: trace, quick: true, outDir: out, warn: io.Discard}
			sz := w.sizes(o.seconds, true)
			metrics, timed, err := measure(io.Discard, w, o, sz)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if timed != sz.segments*sz.maxTimed {
				t.Errorf("%s: %d of %d iterations completed", w.name, timed, sz.segments*sz.maxTimed)
			}
			want := file.EndToEnd
			if trace {
				want = file.PerLayer
			}
			sameNames(t, w.name, slices.Sorted(maps.Keys(metrics)), sortedNames(want))
			for k, m := range metrics {
				if m.Unit != units[k] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, k, m.Unit, units[k])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, k, m.Value)
				}
			}
			if trace {
				if metrics["wire.topk_select_us_per_vec"].Value > 0 != (w.spec.Payload == core.PayloadTopK) {
					t.Errorf("%s: top-k selection time %v", w.name, metrics["wire.topk_select_us_per_vec"].Value)
				}
				if _, err := os.Stat(out + "/trace-" + w.name + "-7.json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// TestDecoratorsTransparent pins the two ways a decorator could change the
// run it measures: hiding an optional capability the engine type-asserts
// for, and changing the arithmetic.
func TestDecoratorsTransparent(t *testing.T) {
	tr := newTracer(8, 2, sizes{warmup: 1, maxTimed: 1})
	plan := func(scheme string) coding.Plan {
		sch, err := coding.Lookup(scheme)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sch.Plan(8, 8, 2, rngutil.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, scheme := range coding.Names() {
		inner := plan(scheme)
		wrapped := wrapPlan(inner, tr)
		_, innerRetunable := inner.(coding.Retunable)
		rp, retunable := wrapped.(coding.Retunable)
		if retunable != innerRetunable {
			t.Errorf("%s: Retunable %v after wrapping, %v before", scheme, retunable, innerRetunable)
		}
		if retunable {
			lp, err := rp.AtLevel(rp.MinLevel())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := lp.(*tracedPlan); !ok {
				t.Errorf("%s: level plans lose the encode span", scheme)
			}
		}
		if got, want := coding.MinResponders(wrapped), coding.MinResponders(inner); got != want {
			t.Errorf("%s: MinResponders %d after wrapping, %d before", scheme, got, want)
		}
		innerDec, dec := inner.NewDecoder(), wrapped.NewDecoder()
		_, innerSlice := innerDec.(coding.SliceDecoder)
		_, innerPar := innerDec.(coding.ParallelDecoder)
		if _, ok := dec.(coding.SliceDecoder); ok != innerSlice {
			t.Errorf("%s: SliceDecoder %v after wrapping, %v before", scheme, ok, innerSlice)
		}
		if _, ok := dec.(coding.ParallelDecoder); ok != innerPar {
			t.Errorf("%s: ParallelDecoder %v after wrapping, %v before", scheme, ok, innerPar)
		}
	}
	nesterov := optimize.NewNesterov(make([]float64, 4), optimize.Constant(0.5))
	if _, ok := wrapOptimizer(nesterov, tr).(optimize.SliceUpdater); !ok {
		t.Error("wrapped Nesterov lost UpdateSlice")
	}
	if _, ok := wrapOptimizer(plainOptimizer{nesterov}, tr).(optimize.SliceUpdater); ok {
		t.Error("wrapping invented UpdateSlice")
	}

	// One seed, untraced then traced: the same gradient norms, bit for bit.
	w, err := findWorkload("dataplane-topk")
	if err != nil {
		t.Fatal(err)
	}
	sz := w.sizes(defaultSeconds, true)
	seg, err := runSegment(context.Background(), w, 42, sz)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := runTraced(context.Background(), w, 42, sz)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.tracer.stats) != len(seg.gradNorms) {
		t.Fatalf("traced pass ran %d iterations, untraced %d", len(tp.tracer.stats), len(seg.gradNorms))
	}
	for i, st := range tp.tracer.stats {
		if st.GradNorm != seg.gradNorms[i] {
			t.Fatalf("iteration %d: GradNorm %v traced, %v untraced", i, st.GradNorm, seg.gradNorms[i])
		}
	}
}

// plainOptimizer hides every optional capability of the optimizer it wraps.
type plainOptimizer struct{ optimize.Optimizer }
