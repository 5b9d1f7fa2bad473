package bcc

// One benchmark per paper table/figure (regenerating the artifact at reduced
// Monte-Carlo budgets and reporting its headline metric), plus micro
// benchmarks for the kernels on the training hot path.
//
// Full-size artifact regeneration is the bccbench command's job; these
// benches keep every experiment exercised and tracked by `go test -bench`.

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"bcc/internal/cluster"
	"bcc/internal/coding"
	"bcc/internal/core"
	"bcc/internal/coupon"
	"bcc/internal/experiments"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

func benchOptions() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1}
}

func parseCell(b *testing.B, tab *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d)=%q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// BenchmarkFig2Tradeoff regenerates the Fig. 2 threshold-vs-load tradeoff.
func BenchmarkFig2Tradeoff(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig2(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	// First row: smallest r; report the BCC measured threshold.
	b.ReportMetric(parseCell(b, last, 0, 3), "K_bcc_measured")
}

// BenchmarkFig4RunningTime regenerates the Fig. 4 running-time comparison.
func BenchmarkFig4RunningTime(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig4(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	// Rows: uncoded, cyclicrep, bcc. Report BCC's total and its speedup.
	bccTotal := parseCell(b, last, 2, 4)
	uncodedTotal := parseCell(b, last, 0, 4)
	b.ReportMetric(bccTotal, "bcc_total_s")
	b.ReportMetric(100*(1-bccTotal/uncodedTotal), "bcc_speedup_pct")
}

// BenchmarkTable1Breakdown regenerates the Table I breakdown.
func BenchmarkTable1Breakdown(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table1(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 2, 1), "bcc_recovery_threshold")
	b.ReportMetric(parseCell(b, last, 2, 2), "bcc_comm_s")
}

// BenchmarkTable2Breakdown regenerates the Table II breakdown.
func BenchmarkTable2Breakdown(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table2(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 2, 4), "bcc_total_s")
}

// BenchmarkFig5Heterogeneous regenerates the Fig. 5 LB-vs-BCC comparison.
func BenchmarkFig5Heterogeneous(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig5(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	lb := parseCell(b, last, 0, 1)
	gbcc := parseCell(b, last, 1, 1)
	b.ReportMetric(100*(1-gbcc/lb), "reduction_pct")
}

// BenchmarkTheorem1Check regenerates the Theorem 1 achievability check.
func BenchmarkTheorem1Check(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Theorem1(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 0, 3), "measured_K_r2")
}

// BenchmarkTheorem2Bounds regenerates the Theorem 2 bracket.
func BenchmarkTheorem2Bounds(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Theorem2(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 3, 1), "bound_ratio")
}

// BenchmarkCommLoad regenerates the communication-load comparison.
func BenchmarkCommLoad(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.CommLoad(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 0, 2), "bcc_load_r2")
}

// BenchmarkFractionalRepetition regenerates the FR early-finish ablation.
func BenchmarkFractionalRepetition(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fractional(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 0, 3), "fr_measured_K")
}

// BenchmarkTailBound regenerates the Lemma 2 tail-bound validation.
func BenchmarkTailBound(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TailBound(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 1, 2), "empirical_tail_eps025")
}

// BenchmarkMultiBatchAblation regenerates the one-batch design ablation.
func BenchmarkMultiBatchAblation(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.MultiBatch(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 0, 4), "k1_measured_K")
}

// BenchmarkApproxCoverage regenerates the approximate-coverage tradeoff.
func BenchmarkApproxCoverage(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Approx(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 0, 2), "phi06_avg_K")
}

// BenchmarkSkewRobustness regenerates the skewed-selection study.
func BenchmarkSkewRobustness(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Skew(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, len(last.Rows)-1, 2), "zipf15_measured_K")
}

// BenchmarkHeteroTrain regenerates the end-to-end §IV training comparison.
func BenchmarkHeteroTrain(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.HeteroTrain(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	lb := parseCell(b, last, 0, 1)
	g := parseCell(b, last, 1, 1)
	b.ReportMetric(100*(1-g/lb), "speedup_pct")
}

// BenchmarkConvergence regenerates the wall-clock convergence comparison.
func BenchmarkConvergence(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Convergence(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 2, 3), "bcc_time_to_target_s")
}

// BenchmarkScaling regenerates the cluster-size scaling study.
func BenchmarkScaling(b *testing.B) {
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Scaling(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	b.ReportMetric(parseCell(b, last, 0, 2), "bcc_total_s_smallest_n")
}

// ---------------------------------------------------------------------------
// Micro benchmarks: scheme encode/decode and training-loop kernels
// ---------------------------------------------------------------------------

func benchPlan(b *testing.B, scheme string, m, n, r int) (coding.Plan, [][]float64) {
	return benchPlanDim(b, scheme, m, n, r, benchGradDim)
}

func benchPlanDim(b *testing.B, scheme string, m, n, r, dim int) (coding.Plan, [][]float64) {
	b.Helper()
	s, err := coding.Lookup(scheme)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := s.Plan(m, n, r, rngutil.New(1))
	if err != nil {
		b.Skipf("%s rejects m=%d n=%d r=%d: %v", scheme, m, n, r, err)
	}
	rng := rngutil.New(2)
	gs := make([][]float64, m)
	for u := range gs {
		g := make([]float64, dim)
		for t := range g {
			g[t] = rng.Normal()
		}
		gs[u] = g
	}
	return plan, gs
}

// benchGradDim is the payload dimension of the micro benchmarks (the
// paper's scenario-one gradient is p=1024 per partial gradient).
const benchGradDim = 1024

func benchEncodeDecode(b *testing.B, scheme string) {
	plan, gs := benchPlan(b, scheme, 50, 50, 10)
	assign := plan.Assignments()
	order := rngutil.New(3).Perm(50)
	dst := make([]float64, benchGradDim)
	dec := plan.NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reset()
		for _, w := range order {
			parts := make([][]float64, len(assign[w]))
			for k, u := range assign[w] {
				parts[k] = gs[u]
			}
			for _, msg := range coding.Encode(plan, w, parts) {
				dec.Offer(msg)
			}
			if dec.Decodable() {
				break
			}
		}
		if err := dec.DecodeInto(dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode isolates the master's decode path for every registered
// scheme over a payload-size sweep (p = 1024 is the paper's scenario-one
// gradient, p = 16384 a realistic sparse-workload dimension where the
// decode combination dominates): messages are encoded once up front, then
// each round resets the reused decoder, offers messages until decodable and
// decodes in place. allocs/op is reported; the steady-state decode of the
// coverage schemes is allocation-free and the linear-coded schemes hit
// their plan-level solve caches after the first round.
func BenchmarkDecode(b *testing.B) {
	for _, scheme := range coding.Names() {
		for _, dim := range []int{1024, 16384} {
			b.Run(fmt.Sprintf("%s/p=%d", scheme, dim), func(b *testing.B) {
				benchDecodeDim(b, scheme, dim)
			})
		}
	}
}

func benchDecodeDim(b *testing.B, scheme string, dim int) {
	plan, gs := benchPlanDim(b, scheme, 50, 50, 10, dim)
	assign := plan.Assignments()
	order := rngutil.New(3).Perm(50)
	msgs := make([][]coding.Message, 50)
	for _, w := range order {
		parts := make([][]float64, len(assign[w]))
		for k, u := range assign[w] {
			parts[k] = gs[u]
		}
		msgs[w] = coding.Encode(plan, w, parts)
	}
	dec := plan.NewDecoder()
	dst := make([]float64, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reset()
		for _, w := range order {
			for _, msg := range msgs[w] {
				dec.Offer(msg)
			}
			if dec.Decodable() {
				break
			}
		}
		if err := dec.DecodeInto(dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDecodeBCC measures one full encode+decode round of BCC at
// the paper's scenario-one size (m=n=50, r=10, p=1024).
func BenchmarkEncodeDecodeBCC(b *testing.B) { benchEncodeDecode(b, "bcc") }

// BenchmarkEncodeDecodeCyclicRep measures CR, whose decode solves a least-
// squares system per iteration.
func BenchmarkEncodeDecodeCyclicRep(b *testing.B) { benchEncodeDecode(b, "cyclicrep") }

// BenchmarkEncodeDecodeCyclicMDS measures the complex-coded MDS scheme.
func BenchmarkEncodeDecodeCyclicMDS(b *testing.B) { benchEncodeDecode(b, "cyclicmds") }

// BenchmarkEncodeDecodeUncoded measures the baseline.
func BenchmarkEncodeDecodeUncoded(b *testing.B) { benchEncodeDecode(b, "uncoded") }

// BenchmarkSimIteration measures full simulated training iterations
// (gradient computation + encode + DES + decode + Nesterov step).
func BenchmarkSimIteration(b *testing.B) {
	job, err := core.NewJob(core.Spec{
		Examples: 50, Workers: 50, Load: 10,
		DataPoints: 500, Dim: 256, Iterations: 1, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := core.NewJob(core.Spec{
			Examples: 50, Workers: 50, Load: 10,
			DataPoints: 500, Dim: 256, Iterations: 10, Seed: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := fresh.Run(); err != nil {
			b.Fatal(err)
		}
	}
	_ = job
}

// BenchmarkSimIterationFaults is BenchmarkSimIteration under an active
// fault scenario: it reports how much the per-iteration fault bookkeeping
// (plan queries, reachable-worker accounting, slowdown-wrapped latency)
// adds on top of the fault-free baseline, and its allocs/op pins the fault
// path staying allocation-clean in steady state.
func BenchmarkSimIterationFaults(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := core.NewJob(core.Spec{
			Examples: 50, Workers: 50, Load: 10,
			DataPoints: 500, Dim: 256, Iterations: 10, Seed: 4,
			FaultScenario: "flaky-tail",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := fresh.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCouponSimulate measures the classic collector simulation used
// throughout the Monte-Carlo validations.
func BenchmarkCouponSimulate(b *testing.B) {
	rng := rngutil.New(5)
	for i := 0; i < b.N; i++ {
		coupon.SimulateDraws(100, rng)
	}
}

// BenchmarkGemv measures the dense kernel behind every gradient evaluation.
func BenchmarkGemv(b *testing.B) {
	rng := rngutil.New(6)
	a := vecmath.NewMatrix(512, 512)
	for i := range a.Data {
		a.Data[i] = rng.Normal()
	}
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.Normal()
	}
	b.SetBytes(512 * 512 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecmath.Gemv(a, x)
	}
}

// BenchmarkShiftExpDraw measures the latency sampler on the sim hot path.
func BenchmarkShiftExpDraw(b *testing.B) {
	lat, err := cluster.NewShiftExp(64, []cluster.ShiftExpParams{{
		ComputeShift: 1e-5, ComputeMu: 1e4, CommShift: 1e-3, CommMu: 10,
	}}, rngutil.New(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat.Compute(i%64, i, 100)
	}
}

// BenchmarkHeteroAllocate measures the P2 load allocator (golden-section +
// bisection) on the Fig. 5 cluster.
func BenchmarkHeteroAllocate(b *testing.B) {
	c := PaperFig5Cluster()
	for i := 0; i < b.N; i++ {
		if _, err := c.Allocate(3107); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimes compares the per-iteration overhead of the sim, live
// and tcp transports driving the shared master engine on one fixed small
// Spec. It is the baseline for future runtime-performance PRs: the reported
// ns/cluster-iter isolates what each transport adds on top of the identical
// engine/decode/optimizer work.
func BenchmarkRuntimes(b *testing.B) {
	const iters = 5
	// The observed cases attach a counting Observer: the per-iteration hook
	// must add no measurable overhead to the engine loop (compare the
	// ns/cluster-iter of "sim" vs "sim-observed").
	cases := []struct {
		name     string
		runtime  core.Runtime
		observed bool
	}{
		{"sim", core.RuntimeSim, false},
		{"sim-observed", core.RuntimeSim, true},
		{"live", core.RuntimeLive, false},
		{"live-observed", core.RuntimeLive, true},
		{"tcp", core.RuntimeTCP, false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			callbacks := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				spec := core.Spec{
					Examples: 8, Workers: 8, Load: 2,
					DataPoints: 64, Dim: 64, Iterations: iters,
					Seed: 11, Runtime: tc.runtime, TimeScale: 1e-9,
				}
				if tc.observed {
					spec.Observer = cluster.ObserverFuncs{
						Iteration: func(cluster.IterStats) { callbacks++ },
					}
				}
				job, err := core.NewJob(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := job.Run(); err != nil {
					b.Fatal(err)
				}
			}
			if tc.observed && callbacks != b.N*iters {
				b.Fatalf("observer saw %d iterations, want %d", callbacks, b.N*iters)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/cluster-iter")
		})
	}
}

// BenchmarkTCPCodecWire measures a full training run over loopback TCP in
// wire frames; the payload is a p=2048 gradient, so codec overhead is
// visible.
func BenchmarkTCPCodecWire(b *testing.B) {
	for i := 0; i < b.N; i++ {
		job, err := core.NewJob(core.Spec{
			Examples: 10, Workers: 10, Load: 2,
			DataPoints: 40, Dim: 2048, Iterations: 5,
			Seed: 9, Runtime: "tcp", TimeScale: 1e-9,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := &cluster.Config{
			Plan: job.Plan, Model: job.Model, Units: job.Units, Opt: job.Opt,
			Iterations: 5,
		}
		if _, err := cluster.RunLive(cfg, cluster.LiveOptions{TimeScale: 1e-9, TCP: true}); err != nil {
			b.Fatal(err)
		}
	}
}
