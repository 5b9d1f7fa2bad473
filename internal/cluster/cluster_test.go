package cluster

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"bcc/internal/coding"
	"bcc/internal/coupon"
	"bcc/internal/dataset"
	"bcc/internal/faults"
	"bcc/internal/model"
	"bcc/internal/optimize"
	"bcc/internal/rngutil"
	"bcc/internal/trace"
	"bcc/internal/vecmath"
	"bcc/internal/wire"
)

// buildRun assembles a full Config for the given scheme over a synthetic
// logistic-regression task. Returns the config and the model for reference
// computations.
func buildRun(t *testing.T, scheme string, m, n, r, iterations int, seed uint64, lat Latency) (*Config, *model.Logistic) {
	t.Helper()
	return buildRunDim(t, scheme, m, n, r, iterations, seed, lat, 12)
}

// buildRunDim is buildRun at a chosen feature dimension.
func buildRunDim(t *testing.T, scheme string, m, n, r, iterations int, seed uint64, lat Latency, dim int) (*Config, *model.Logistic) {
	t.Helper()
	rng := rngutil.New(seed)
	ds, err := dataset.Generate(dataset.Config{N: 4 * m, Dim: dim, Separation: 1.5}, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	units, err := ds.Units(m)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := coding.Lookup(scheme)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sch.Plan(m, n, r, rng.Split())
	if err != nil {
		t.Skipf("%s rejects m=%d n=%d r=%d: %v", scheme, m, n, r, err)
	}
	mod := model.NewLogistic(ds)
	opt := optimize.NewNesterov(make([]float64, mod.Dim()), optimize.Constant(0.5))
	return &Config{
		Plan:       plan,
		Model:      mod,
		Units:      units,
		Opt:        opt,
		Iterations: iterations,
		Latency:    lat,
	}, mod
}

// crashPlan is the fault plan of an n-worker run whose dead workers never
// answer: each is a crash at iteration 0 that never restarts.
func crashPlan(n int, dead ...int) *faults.Plan {
	p := &faults.Plan{N: n}
	for _, w := range dead {
		p.Crashes = append(p.Crashes, faults.Crash{Worker: w, At: 0})
	}
	return p
}

// referenceWeights runs the same optimizer sequentially on exact full
// gradients, through the allocation-free in-place path.
func referenceWeights(mod *model.Logistic, iterations int) []float64 {
	opt := optimize.NewNesterov(make([]float64, mod.Dim()), optimize.Constant(0.5))
	rows := model.AllRows(mod.NumExamples())
	return optimize.RunInPlace(opt, func(w, out []float64) {
		model.FullGradientInto(mod, w, out, rows)
	}, mod.Dim(), iterations)
}

func TestSimTrainsAllSchemes(t *testing.T) {
	for _, scheme := range coding.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg, mod := buildRun(t, scheme, 12, 12, 3, 20, 7, Zero{})
			cfg.LossEvery = 19
			res, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Iters) != 20 {
				t.Fatalf("recorded %d iterations", len(res.Iters))
			}
			if scheme == "bccapprox" {
				// Approximate gradients: assert optimization progress, not
				// weight equality.
				if res.Iters[19].Loss >= math.Log(2) {
					t.Fatalf("approximate BCC did not reduce loss: %v", res.Iters[19].Loss)
				}
				return
			}
			ref := referenceWeights(mod, 20)
			if d := vecmath.MaxAbsDiff(res.FinalW, ref); d > 1e-6 {
				t.Fatalf("%s: final weights differ from sequential reference by %v", scheme, d)
			}
		})
	}
}

func TestSimFixedLatencyTimingExact(t *testing.T) {
	// Uncoded over 4 workers with deterministic latency: wall time per
	// iteration = slowest(compute) + upload; with the slowest factor on
	// worker 3.
	lat := Fixed{PerPoint: 0.1, PerUnit: 2, Factor: []float64{1, 1, 1, 3}}
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 3, 8, lat)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each worker holds 2 units x 4 points = 8 points. Worker 3: compute
	// 0.1*8*3 = 2.4, upload 2*3 = 6 => arrival 8.4; others arrive at
	// 0.8 + 2 = 2.8. Uncoded waits for worker 3.
	for _, it := range res.Iters {
		if math.Abs(it.Wall-8.4) > 1e-9 {
			t.Fatalf("iteration wall %v, want 8.4", it.Wall)
		}
		if math.Abs(it.Compute-2.4) > 1e-9 {
			t.Fatalf("compute %v, want 2.4 (max among heard)", it.Compute)
		}
		if math.Abs(it.Comm-6.0) > 1e-9 {
			t.Fatalf("comm %v, want 6.0", it.Comm)
		}
		if it.WorkersHeard != 4 {
			t.Fatalf("heard %d", it.WorkersHeard)
		}
	}
	if math.Abs(res.TotalWall-3*8.4) > 1e-9 {
		t.Fatalf("total wall %v", res.TotalWall)
	}
}

func TestSimBCCIgnoresStraggler(t *testing.T) {
	// BCC with one catastrophically slow worker: as long as its batch is
	// covered by someone else, the wall time must not include it.
	lat := Fixed{PerPoint: 0.01, PerUnit: 1, Factor: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1000}}
	// m=8, r=2 -> 4 batches over 10 workers.
	cfg, _ := buildRun(t, "bcc", 8, 10, 2, 5, 9, lat)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iters {
		if it.Wall > 100 {
			t.Fatalf("BCC waited for the straggler: wall=%v", it.Wall)
		}
	}
}

func TestSimBCCThresholdMatchesTheory(t *testing.T) {
	// Average workers heard over many iterations with iid worker latencies
	// should approach N*H_N. Use exponential-ish noise so arrival order is
	// a fresh uniform permutation each iteration.
	rng := rngutil.New(123)
	lat, err := NewShiftExp(60, []ShiftExpParams{{
		ComputeShift: 1e-4, ComputeMu: 50,
		CommShift: 1e-3, CommMu: 1,
	}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, n, r := 20, 60, 5 // 4 batches
	cfg, _ := buildRun(t, "bcc", m, n, r, 300, 10, lat)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := coupon.ExpectedDraws(4) // 8.33
	if math.Abs(res.AvgWorkersHeard-want) > 0.8 {
		t.Fatalf("avg workers heard %v, theory %v", res.AvgWorkersHeard, want)
	}
}

func TestSimCyclicRepWaitsExactlyThreshold(t *testing.T) {
	rng := rngutil.New(124)
	lat, err := NewShiftExp(12, []ShiftExpParams{{
		ComputeShift: 1e-4, ComputeMu: 10, CommShift: 1e-3, CommMu: 0.5,
	}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := buildRun(t, "cyclicrep", 12, 12, 3, 10, 11, lat)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iters {
		if it.WorkersHeard != 10 { // n - s = 12 - 2
			t.Fatalf("CR heard %d workers, want exactly 10", it.WorkersHeard)
		}
	}
}

func TestSimDeadWorkersCodedSchemeSurvives(t *testing.T) {
	cfg, mod := buildRun(t, "cyclicrep", 12, 12, 3, 15, 12, Zero{})
	cfg.Faults = crashPlan(12, 2, 7) // s = 2 tolerated
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceWeights(mod, 15)
	if d := vecmath.MaxAbsDiff(res.FinalW, ref); d > 1e-6 {
		t.Fatalf("weights diverged despite tolerated failures: %v", d)
	}
	for _, it := range res.Iters {
		if it.WorkersHeard != 10 {
			t.Fatalf("heard %d", it.WorkersHeard)
		}
	}
}

func TestSimDeadWorkersBeyondToleranceStall(t *testing.T) {
	cfg, _ := buildRun(t, "cyclicrep", 12, 12, 3, 5, 13, Zero{})
	cfg.Faults = crashPlan(12, 1, 2, 3) // s = 2 < 3 dead
	_, err := RunSim(cfg)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("expected ErrStalled, got %v", err)
	}
}

func TestSimUncodedAnyDeathStalls(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 12, 12, 1, 5, 14, Zero{})
	cfg.Faults = crashPlan(12, 5)
	_, err := RunSim(cfg)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("expected ErrStalled, got %v", err)
	}
}

func TestSimBCCDeadWorkerSurvivesWhenBatchCovered(t *testing.T) {
	// Find a worker whose batch has a duplicate holder; killing it must not
	// stall the run.
	cfg, _ := buildRun(t, "bcc", 8, 24, 2, 8, 15, Zero{})
	assign := cfg.Plan.Assignments()
	holders := map[int][]int{}
	for w := range assign {
		b := assign[w][0] / 2
		holders[b] = append(holders[b], w)
	}
	victim := -1
	for _, ws := range holders {
		if len(ws) > 1 {
			victim = ws[0]
			break
		}
	}
	if victim < 0 {
		t.Skip("no duplicated batch in this placement")
	}
	cfg.Faults = crashPlan(24, victim)
	if _, err := RunSim(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSimReproducible(t *testing.T) {
	run := func() *Result {
		rng := rngutil.New(321)
		lat, err := NewShiftExp(12, []ShiftExpParams{{
			ComputeShift: 1e-3, ComputeMu: 5, CommShift: 0.01, CommMu: 2,
		}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg, _ := buildRun(t, "bcc", 12, 12, 3, 12, 16, lat)
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if vecmath.MaxAbsDiff(a.FinalW, b.FinalW) != 0 {
		t.Fatal("same seed gave different weights")
	}
	if a.TotalWall != b.TotalWall || a.AvgWorkersHeard != b.AvgWorkersHeard {
		t.Fatal("same seed gave different timings")
	}
}

func TestSimLossRecording(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 10, 17, Zero{})
	cfg.LossEvery = 3
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for i, it := range res.Iters {
		if i%3 == 0 {
			if math.IsNaN(it.Loss) {
				t.Fatalf("loss missing at iteration %d", i)
			}
			recorded++
		} else if !math.IsNaN(it.Loss) {
			t.Fatalf("unexpected loss at iteration %d", i)
		}
	}
	if recorded != 4 {
		t.Fatalf("recorded %d losses", recorded)
	}
	// Loss should decrease over training (compare recorded samples).
	if first, later := res.Iters[0].Loss, res.Iters[6].Loss; later >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, later)
	}
}

func TestSimIngressSerialization(t *testing.T) {
	// With zero worker latency and a pure master bottleneck, iteration wall
	// time must be exactly (#messages drained) * IngressPerUnit, and the
	// uncoded scheme must drain all holders.
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 3, 30, Zero{})
	cfg.IngressPerUnit = 0.25
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iters {
		if math.Abs(it.Wall-4*0.25) > 1e-12 {
			t.Fatalf("wall %v, want 1.0 (4 messages x 0.25)", it.Wall)
		}
	}
}

func TestSimIngressProportionalToThreshold(t *testing.T) {
	// The paper's §III-C observation: with a dominant master bottleneck the
	// total time of each scheme is roughly proportional to its recovery
	// threshold. Compare uncoded (K=n) against BCC (K ~ N H_N) under the
	// same ingress cost.
	runOne := func(scheme string, m, n, r int) float64 {
		cfg, _ := buildRun(t, scheme, m, n, r, 10, 31, Zero{})
		cfg.IngressPerUnit = 0.01
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalWall / res.AvgWorkersHeard
	}
	perWorkerUncoded := runOne("uncoded", 20, 20, 1)
	perWorkerBCC := runOne("bcc", 20, 20, 5)
	if math.Abs(perWorkerUncoded-perWorkerBCC) > 0.05*perWorkerUncoded {
		t.Fatalf("wall/threshold not constant: uncoded %v vs bcc %v", perWorkerUncoded, perWorkerBCC)
	}
}

func TestResultSummaries(t *testing.T) {
	rng := rngutil.New(41)
	lat, err := NewShiftExp(20, []ShiftExpParams{{CommShift: 0.01, CommMu: 2}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := buildRun(t, "bcc", 10, 20, 2, 25, 42, lat)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := res.WallSummary()
	if ws.N != 25 || ws.Mean <= 0 || ws.Min > ws.Max {
		t.Fatalf("wall summary %+v", ws)
	}
	ts := res.ThresholdSummary()
	if ts.Mean != res.AvgWorkersHeard {
		t.Fatalf("threshold summary mean %v != %v", ts.Mean, res.AvgWorkersHeard)
	}
}

func TestSimTraceRecording(t *testing.T) {
	lat := Fixed{PerPoint: 0.1, PerUnit: 2}
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 3, 32, lat)
	cfg.IngressPerUnit = 0.5
	var rec trace.Recorder
	cfg.Trace = &rec
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 3 {
		t.Fatalf("recorded %d iterations", rec.Len())
	}
	it := rec.Iterations[0]
	if len(it.Spans) != 4 {
		t.Fatalf("spans %d, want 4 workers", len(it.Spans))
	}
	counted := 0
	for _, s := range it.Spans {
		if !(0 < s.ComputeEnd && s.ComputeEnd <= s.Arrive) {
			t.Fatalf("span phases out of order: %+v", s)
		}
		if !(s.Arrive <= s.DrainStart && s.DrainStart < s.DrainEnd) {
			t.Fatalf("drain out of order: %+v", s)
		}
		if s.Counted {
			counted++
		}
	}
	if counted != res.Iters[0].WorkersHeard {
		t.Fatalf("trace counted %d, stats say %d", counted, res.Iters[0].WorkersHeard)
	}
	if it.DecodeTime != res.Iters[0].Wall {
		t.Fatalf("trace decode time %v vs wall %v", it.DecodeTime, res.Iters[0].Wall)
	}
	if _, err := rec.Gantt(0, 60); err != nil {
		t.Fatal(err)
	}
}

func TestSimTraceDoesNotChangeMetrics(t *testing.T) {
	mk := func(withTrace bool) *Result {
		rng := rngutil.New(777)
		lat, err := NewShiftExp(12, []ShiftExpParams{{CommShift: 0.01, CommMu: 2}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg, _ := buildRun(t, "bcc", 12, 12, 3, 8, 33, lat)
		cfg.IngressPerUnit = 0.002
		if withTrace {
			cfg.Trace = &trace.Recorder{}
		}
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(false), mk(true)
	if a.TotalWall != b.TotalWall || a.AvgWorkersHeard != b.AvgWorkersHeard {
		t.Fatalf("tracing changed metrics: %v/%v vs %v/%v",
			a.TotalWall, a.AvgWorkersHeard, b.TotalWall, b.AvgWorkersHeard)
	}
	if vecmath.MaxAbsDiff(a.FinalW, b.FinalW) != 0 {
		t.Fatal("tracing changed training")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 5, 18, Zero{})
	bad := *cfg
	bad.Units = cfg.Units[:len(cfg.Units)-1]
	if _, err := RunSim(&bad); err == nil {
		t.Fatal("short units accepted")
	}
	bad2 := *cfg
	bad2.Iterations = 0
	if _, err := RunSim(&bad2); err == nil {
		t.Fatal("zero iterations accepted")
	}
	bad3 := *cfg
	bad3.Faults = crashPlan(4, 99)
	if _, err := RunSim(&bad3); err == nil {
		t.Fatal("out-of-range dead worker accepted")
	}
	bad4 := *cfg
	bad4.Plan = nil
	if _, err := RunSim(&bad4); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestWorkerPoints(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 5, 19, Zero{})
	total := 0
	for w := range cfg.Plan.Assignments() {
		total += newWorkerRounds(w, cfg.Plan, cfg.Model, cfg.Units, nil, 1).at(0).points
	}
	if total != cfg.Model.NumExamples() {
		t.Fatalf("points sum %d != %d", total, cfg.Model.NumExamples())
	}
}

// ---------------------------------------------------------------------------
// Live (goroutine/channel) runtime
// ---------------------------------------------------------------------------

func TestLiveMatchesSimExactlyForBCC(t *testing.T) {
	// Coverage-based decoding is arrival-order independent, so live and sim
	// runs with identical plans and data produce bit-identical weights.
	mkCfg := func() (*Config, *model.Logistic) {
		return buildRun(t, "bcc", 10, 20, 2, 8, 20, Zero{})
	}
	cfgSim, _ := mkCfg()
	simRes, err := RunSim(cfgSim)
	if err != nil {
		t.Fatal(err)
	}
	cfgLive, _ := mkCfg()
	liveRes, err := RunLive(cfgLive, LiveOptions{TimeScale: 1e-5, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(simRes.FinalW, liveRes.FinalW); d != 0 {
		t.Fatalf("live and sim weights differ by %v", d)
	}
}

func TestLiveTrainsCyclicRep(t *testing.T) {
	cfg, mod := buildRun(t, "cyclicrep", 10, 10, 3, 10, 21, Zero{})
	res, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceWeights(mod, 10)
	if d := vecmath.MaxAbsDiff(res.FinalW, ref); d > 1e-6 {
		t.Fatalf("live CR weights differ from reference by %v", d)
	}
}

func TestLiveStragglerSkipped(t *testing.T) {
	// One worker sleeps 1000x longer; BCC should complete without it (its
	// batch has other holders with overwhelming probability given n >> N).
	factors := make([]float64, 30)
	for i := range factors {
		factors[i] = 1
	}
	factors[0] = 1000
	lat := Fixed{PerPoint: 1e-4, PerUnit: 0.01, Factor: factors}
	cfg, _ := buildRun(t, "bcc", 10, 30, 2, 4, 22, lat)
	start := time.Now()
	res, err := RunLive(cfg, LiveOptions{TimeScale: 1e-2, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Straggler upload alone would be 0.01*1000 = 10 virtual s = 100ms real
	// per iteration; the run must finish well under 4 of those.
	if elapsed > 2*time.Second {
		t.Fatalf("live run waited for the straggler: %v", elapsed)
	}
	for _, it := range res.Iters {
		if it.WorkersHeard > 29 {
			t.Fatalf("heard all workers including straggler")
		}
	}
}

func TestLiveStalledDetection(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 8, 8, 1, 3, 23, Zero{})
	cfg.Faults = crashPlan(8, 3)
	_, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, Timeout: 10 * time.Second})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("expected ErrStalled, got %v", err)
	}
}

func TestLiveTimeout(t *testing.T) {
	lat := Fixed{PerPoint: 10} // 10s virtual per point, scale 1e-2 -> ~3s real
	cfg, _ := buildRun(t, "uncoded", 4, 4, 1, 1, 24, lat)
	_, err := RunLive(cfg, LiveOptions{TimeScale: 1e-2, Timeout: 100 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("expected timeout, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// TCP runtime
// ---------------------------------------------------------------------------

func TestTCPMatchesChannelRuntime(t *testing.T) {
	mk := func() (*Config, *model.Logistic) {
		return buildRun(t, "bcc", 8, 16, 2, 6, 25, Zero{})
	}
	cfgA, _ := mk()
	a, err := RunLive(cfgA, LiveOptions{TimeScale: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	cfgB, _ := mk()
	b, err := RunLive(cfgB, LiveOptions{TimeScale: 1e-5, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(a.FinalW, b.FinalW); d != 0 {
		t.Fatalf("TCP and channel weights differ by %v", d)
	}
	if b.TotalBytes == 0 {
		t.Fatal("TCP run reported zero bytes")
	}
}

func TestUnknownCodecRejected(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 16, 2, 2, 29, Zero{})
	if _, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, TCP: true, Codec: "json"}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	// The other two deprecated names refuse the removed gob encoding.
	if err := DialAndServeWorker("127.0.0.1:1", WorkerEnv{Codec: "gob"}); err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Fatalf("WorkerEnv.Codec gob: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := ServeMasterPool(ln, 1, time.Second, "gob", nil, CommOptions{}, 4); err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Fatalf("ServeMasterPool codecName gob: %v", err)
	}
}

func TestTCPTrainsUncoded(t *testing.T) {
	cfg, mod := buildRun(t, "uncoded", 8, 4, 2, 8, 26, Zero{})
	res, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceWeights(mod, 8)
	if d := vecmath.MaxAbsDiff(res.FinalW, ref); d > 1e-6 {
		t.Fatalf("TCP uncoded weights differ by %v", d)
	}
}

func TestDropInjectionBCCSurvives(t *testing.T) {
	// With generous redundancy (n = 4x batches) BCC rides out a 20% message
	// loss rate: every batch usually has several holders per iteration.
	cfg, mod := buildRun(t, "bcc", 8, 32, 2, 12, 37, Zero{})
	cfg.Faults = &faults.Plan{N: 32, Seed: 9, Drop: 0.2}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceWeights(mod, 12)
	if d := vecmath.MaxAbsDiff(res.FinalW, ref); d > 1e-6 {
		t.Fatalf("weights diverged under drops: %v", d)
	}
}

func TestDropInjectionUncodedStalls(t *testing.T) {
	// Uncoded has zero redundancy: over enough iterations some worker's
	// message is lost. Drops are plan content, so the engine sees the doomed
	// iteration coming and degrades before running it, keeping the
	// iterations that completed.
	plan := &faults.Plan{N: 12, Seed: 10, Drop: 0.05}
	cfg, _ := buildRun(t, "uncoded", 12, 12, 1, 50, 38, Zero{})
	cfg.Faults = plan
	res, err := RunSim(cfg)
	if !errors.Is(err, ErrBelowThreshold) || !errors.Is(err, ErrStalled) {
		t.Fatalf("expected ErrBelowThreshold (an ErrStalled) under drops, got %v", err)
	}
	doomed := 0
	for reachableWorkers(plan, 12, doomed) == 12 {
		doomed++
	}
	if res == nil || len(res.Iters) != doomed {
		t.Fatalf("partial result %v, want the %d iterations before the first drop", res, doomed)
	}
}

// TestCyclicRepBelowThresholdFailsFast crashes s+1 workers of a cyclic code
// mid-run: n-s workers are needed and only n-s-1 remain, so the engine must
// degrade explicitly before the doomed iteration and keep the completed ones,
// not stall on it and lose them.
func TestCyclicRepBelowThresholdFailsFast(t *testing.T) {
	cfg, _ := buildRun(t, "cyclicrep", 8, 8, 3, 10, 41, Zero{})
	plan := &faults.Plan{N: 8}
	for w := 0; w < 3; w++ {
		plan.Crashes = append(plan.Crashes, faults.Crash{Worker: w, At: 3})
	}
	cfg.Faults = plan
	res, err := RunSim(cfg)
	if !errors.Is(err, ErrBelowThreshold) {
		t.Fatalf("err = %v, want ErrBelowThreshold", err)
	}
	if res == nil || len(res.Iters) != 3 {
		t.Fatalf("partial result %+v, want the 3 pre-crash iterations", res)
	}
}

func TestDropInjectionLiveRuntime(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 32, 2, 6, 39, Zero{})
	cfg.Faults = &faults.Plan{N: 32, Seed: 11, Drop: 0.2}
	if _, err := RunLive(cfg, LiveOptions{TimeScale: 1e-5, Timeout: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanDropValidation(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 16, 2, 2, 40, Zero{})
	cfg.Faults = &faults.Plan{N: 16, Drop: 1.5}
	if _, err := RunSim(cfg); err == nil {
		t.Fatal("plan Drop > 1 accepted")
	}
}

func TestServeMasterExternalWorkers(t *testing.T) {
	// The service daemon's path: the caller owns the listener, workers dial
	// in on their own (as leased fleet processes do), and the master runs
	// over the assembled fabric.
	cfg, mod := buildRun(t, "bcc", 8, 4, 2, 6, 36, Zero{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	for w := 0; w < 4; w++ {
		env := WorkerEnv{
			Index:     w,
			Plan:      cfg.Plan,
			Model:     cfg.Model,
			Units:     cfg.Units,
			Latency:   Zero{},
			TimeScale: 1e-5,
		}
		go func() { _ = DialAndServeWorker(addr, env) }()
	}
	fab, err := ServeMasterPool(ln, 4, 10*time.Second, "", nil, CommOptions{}, cfg.Model.Dim())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	res, err := RunWithFabricContext(context.Background(), cfg, fab, LiveOptions{TimeScale: 1e-5, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceWeights(mod, 6)
	if d := vecmath.MaxAbsDiff(res.FinalW, ref); d > 1e-6 {
		t.Fatalf("externally-served weights differ from reference by %v", d)
	}
}

// TestRoguePeerCannotCrashMaster: one of n connections handshakes honestly
// and then answers every query with a reply that lies — a sender index past
// n under uncoded, a payload one element short or a load of 1e9 units under
// bcc. The master drops
// that connection like one whose read failed, so the run ends in an error
// (here the iteration timeout: every worker's data is needed) instead of a
// panic that would take down every job of the process.
func TestRoguePeerCannotCrashMaster(t *testing.T) {
	const n = 4
	cases := []struct {
		scheme string
		lie    func(msg *coding.Message)
	}{
		{"uncoded", func(msg *coding.Message) { msg.From = n }},
		{"bcc", func(msg *coding.Message) { msg.Vec = msg.Vec[:len(msg.Vec)-1] }},
		{"bcc", func(msg *coding.Message) { msg.Units = 1e9 }},
	}
	for _, c := range cases {
		t.Run(c.scheme, func(t *testing.T) {
			cfg, _ := buildRun(t, c.scheme, 8, n, 2, 4, 41, Zero{})
			dim := cfg.Model.Dim()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			for w := 1; w < n; w++ {
				env := WorkerEnv{Index: w, Plan: cfg.Plan, Model: cfg.Model, Units: cfg.Units,
					Latency: Zero{}, TimeScale: 1e-5}
				go func() { _ = DialAndServeWorker(addr, env) }()
			}
			go func() {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer conn.Close()
				cp, _ := CommOptions{}.resolve(dim)
				codec := newWireCodec(conn, nil, cp)
				if codec.WriteHello(cp.hello(0)) != nil {
					return
				}
				parts := make([][]float64, len(cfg.Plan.Assignments()[0]))
				for k := range parts {
					parts[k] = make([]float64, dim)
				}
				for {
					mu, err := codec.ReadModel()
					if err != nil || mu.Iter < 0 {
						return
					}
					msgs := coding.Encode(cfg.Plan, 0, parts)
					for i := range msgs {
						c.lie(&msgs[i])
					}
					if codec.WriteReply(Reply{Iter: mu.Iter, Worker: 0, Msgs: msgs}) != nil {
						return
					}
				}
			}()
			fab, err := ServeMasterPool(ln, n, 10*time.Second, "", nil, CommOptions{}, dim)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			_, err = RunWithFabricContext(context.Background(), cfg, fab,
				LiveOptions{TimeScale: 1e-5, Timeout: 300 * time.Millisecond})
			if err == nil || !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("run with a rogue worker 0 ended with %v, want an iteration timeout", err)
			}
		})
	}
}

func TestServeMasterAcceptTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// No workers dial: accept must time out rather than hang.
	if _, err := ServeMasterPool(ln, 1, 100*time.Millisecond, "", nil, CommOptions{}, 4); err == nil {
		t.Fatal("accept with no workers should time out")
	}
}

// gobHello is what a worker built when gob was the default frame encoding
// opened its connection with: the gob encoder's stream for the handshake struct
// {Worker: 0, Payload: "raw64", Chunk: 512}, type definition included.
const gobHello = "G\x7f\x03\x01\x01\x05Hello\x01\xff\x80\x00\x01\x05\x01\x06Worker\x01\x04\x00\x01\aPayload\x01\f\x00" +
	"\x01\x04TopK\x01\x04\x00\x01\x05Chunk\x01\x04\x00\x01\x06Shards\x01\x04\x00\x00\x00\x0e\xff\x80\x02\x05raw64\x02\xfe\x04\x00\x00"

// TestHandshakeRefusesBadPeers pins the accept path against peers that are
// not wire workers — one that connects and never speaks, an old gob-framed
// worker, one that opens with an unknown frame kind — on the master's one
// data-plane (primary) listener. Each must fail the handshake within the
// accept timeout instead of wedging the master.
func TestHandshakeRefusesBadPeers(t *testing.T) {
	const dim, timeout = 4, 200 * time.Millisecond
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	dial := func(ln net.Listener) net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	// hello encodes a well-formed handshake claiming worker index idx.
	hello := func(idx int) string {
		cp, err := CommOptions{}.resolve(dim)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := wire.NewWriter(&buf).WriteHello(cp.hello(idx)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	// Each peer dials once per opening; the master expects len(openings)
	// workers.
	peers := []struct {
		name     string
		openings []string
	}{
		{"silent", []string{""}},
		{"gob-hello", []string{gobHello}},
		{"unknown-kind", []string{"\xee"}},
		{"out-of-range-index", []string{hello(1)}},
		{"duplicate-index", []string{hello(0), hello(0)}},
	}
	for _, peer := range peers {
		t.Run(peer.name+"/primary", func(t *testing.T) {
			ln := listen()
			for _, opening := range peer.openings {
				if _, err := io.WriteString(dial(ln), opening); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() {
				fab, err := ServeMasterPool(ln, len(peer.openings), timeout, "", nil, CommOptions{}, dim)
				if err == nil {
					fab.Close()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "tcp handshake") {
					t.Fatalf("peer got %v, want a %q error", err, "tcp handshake")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("master still blocked in the handshake after 2s")
			}
		})
	}
}

func TestShiftExpValidation(t *testing.T) {
	if _, err := NewShiftExp(0, []ShiftExpParams{{}}, rngutil.New(1)); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewShiftExp(3, []ShiftExpParams{{}, {}}, rngutil.New(1)); err == nil {
		t.Fatal("wrong param count accepted")
	}
	if _, err := NewShiftExp(3, []ShiftExpParams{{}}, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestShiftExpHeterogeneousParams(t *testing.T) {
	rng := rngutil.New(5)
	params := []ShiftExpParams{
		{ComputeShift: 1, ComputeMu: 100},
		{ComputeShift: 10, ComputeMu: 100},
	}
	lat, err := NewShiftExp(2, params, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1's shift is 10x worker 0's; with a light tail the sampled
	// compute times must reflect that.
	c0 := lat.Compute(0, 0, 5)
	c1 := lat.Compute(1, 0, 5)
	if c0 < 5 || c1 < 50 {
		t.Fatalf("shift not honored: c0=%v c1=%v", c0, c1)
	}
	if c1 < c0 {
		t.Fatalf("heterogeneity inverted: c0=%v c1=%v", c0, c1)
	}
}

func TestFixedLatencyDefaults(t *testing.T) {
	var f Fixed
	if f.Compute(0, 0, 100) != 0 || f.Upload(3, 1, 2) != 0 {
		t.Fatal("zero-value Fixed should cost nothing")
	}
}
