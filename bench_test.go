package bcc

// Micro benchmarks for the kernels on the training hot path: worker
// gradients, scheme encode and decode, simulated iterations, and whole runs
// over each runtime and each payload codec. The paper tables are pinned by
// TestRunAllQuick and regenerated by cmd/bccbench; end-to-end performance
// is measured by the bench harness (go run ./bench).

import (
	"fmt"
	"testing"

	"bcc/internal/cluster"
	"bcc/internal/coding"
	"bcc/internal/core"
	"bcc/internal/coupon"
	"bcc/internal/dataset"
	"bcc/internal/model"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
	"bcc/internal/wire"
)

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

// BenchmarkSubsetGradient measures one worker's logistic gradient over its
// rows, the row-blocked RowDot4/RowAxpy4 work that redundancy multiplies:
// "dense" at the compute-dense workload's shape (p = 1024, 512 rows) and
// "csr" at the compute-sparse one's (p = 4096, density 0.05, 800 rows).
// ns/nnz is the time per stored entry of the rows visited.
func BenchmarkSubsetGradient(b *testing.B) {
	for _, c := range []struct {
		name      string
		rows, dim int
		density   float64
	}{
		{"dense", 512, 1024, 0},
		{"csr", 800, 4096, 0.05},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rngutil.New(6)
			d, err := dataset.Generate(dataset.Config{N: c.rows, Dim: c.dim, Density: c.density}, rng)
			if err != nil {
				b.Fatal(err)
			}
			m := model.NewLogistic(d)
			w := make([]float64, c.dim)
			for i := range w {
				w[i] = 0.01 * rng.Normal()
			}
			rows, out := model.AllRows(c.rows), make([]float64, c.dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vecmath.Fill(out, 0)
				m.SubsetGradient(w, rows, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NNZ()), "ns/nnz")
		})
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
// wire frames under each payload codec; the payload is a p=2048 gradient,
// so codec overhead is visible, and wire-in-B/iter shows the bytes each
// codec puts on the sockets.
func BenchmarkTCPCodecWire(b *testing.B) {
	const iters = 5
	for _, payload := range wire.PayloadCodecNames() {
		b.Run(payload, func(b *testing.B) {
			wireIn := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				job, err := core.NewJob(core.Spec{
					Examples: 10, Workers: 10, Load: 2,
					DataPoints: 40, Dim: 2048, Iterations: iters,
					Seed: 9, Runtime: core.RuntimeTCP, TimeScale: 1e-9,
					Payload: core.Payload(payload),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := job.Run()
				if err != nil {
					b.Fatal(err)
				}
				wireIn += res.TotalWireIn
			}
			b.ReportMetric(float64(wireIn)/float64(b.N*iters), "wire-in-B/iter")
		})
	}
}
