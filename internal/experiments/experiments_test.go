package experiments

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bcc/internal/core"
	"bcc/internal/rngutil"
	"bcc/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/runall_quick.golden")

func quickOpt() Options { return Options{Quick: true, Seed: 7} }

func mustRun(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(context.Background(), id, quickOpt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != id {
		t.Fatalf("table id %q, want %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tab
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range Names() {
		id := id
		t.Run(id, func(t *testing.T) {
			mustRun(t, id)
		})
	}
}

func TestFig2Ordering(t *testing.T) {
	tab := mustRun(t, "fig2")
	// For every r: lower bound <= BCC <= randomized (cols 1,2,4); BCC
	// measured within 25% of analytic (cols 2,3).
	for i := range tab.Rows {
		lb := cellFloat(t, tab, i, 1)
		bcc := cellFloat(t, tab, i, 2)
		meas := cellFloat(t, tab, i, 3)
		rnd := cellFloat(t, tab, i, 4)
		if lb > bcc+1e-9 || bcc > rnd+1e-9 {
			t.Fatalf("row %d: ordering violated lb=%v bcc=%v rnd=%v", i, lb, bcc, rnd)
		}
		if math.Abs(meas-bcc)/bcc > 0.25 {
			t.Fatalf("row %d: measured %v far from analytic %v", i, meas, bcc)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := mustRun(t, "fig4")
	// Quick mode: one scenario, rows uncoded/cyclicrep/bcc. Totals must
	// order bcc < cyclicrep < uncoded.
	totals := map[string]float64{}
	for i, row := range tab.Rows {
		totals[row[1]] = cellFloat(t, tab, i, 4)
	}
	if !(totals["bcc"] < totals["cyclicrep"] && totals["cyclicrep"] < totals["uncoded"]) {
		t.Fatalf("totals out of order: %v", totals)
	}
}

// TestCyclicMDSAliasAtPaperSize pins the deprecated scheme name at the
// paper's Fig. 4 size (n = m = 50, r = 10, EC2 latency): it runs cyclicrep,
// which decodes from exactly m - r + 1 = 41 workers on every iteration.
func TestCyclicMDSAliasAtPaperSize(t *testing.T) {
	const n, r, pointsPerUnit, iters, seed = 50, 10, 10, 30, 1
	lat, err := EC2Latency(n, pointsPerUnit, rngutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewJob(core.Spec{
		DataPoints: n * pointsPerUnit, Dim: 20, Examples: n, Workers: n, Load: r,
		Scheme: core.SchemeCyclicMDS, Iterations: iters, Seed: seed, Latency: lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != iters {
		t.Fatalf("ran %d iterations, want %d", len(res.Iters), iters)
	}
	for _, it := range res.Iters {
		if it.WorkersHeard != n-r+1 {
			t.Fatalf("iteration %d heard %d workers, want %d", it.Iter, it.WorkersHeard, n-r+1)
		}
	}
}

// TestFig4OrderingOnSockets asserts the paper's headline ordering where
// TestFig4Shape cannot: on the tcp runtime, real sockets and real sleeps.
// Scenario one (n = m = 50, r = 10) under the EC2 latency profile, bcc vs
// cyclicrep vs uncoded — the figure's own three schemes: the recovery
// threshold (K ≈ 11 / 41 / 50) and the median iteration wall (≈ 1 : 4 : 10)
// must both be strictly ordered, and bcc's real-socket iteration must cost
// about what the simulator's i.i.d. straggler model says — it did not (2.9×)
// while workers queued behind iterations the master had already decoded.
// (The deprecated name cyclicmds runs cyclicrep; see
// TestCyclicMDSAliasAtPaperSize.)
func TestFig4OrderingOnSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp runs sleep real time")
	}
	const n, r, pointsPerUnit, iters, seed = 50, 10, 10, 30, 7
	run := func(scheme core.Scheme, load int, rt core.Runtime) (medianWall, meanHeard float64) {
		t.Helper()
		// A fresh latency model per run: its per-worker streams are stateful.
		lat, err := EC2Latency(n, pointsPerUnit, rngutil.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		// p = 100 keeps what the model leaves out — the real gradients of
		// the workers whose latencies elapse before the decode, contending
		// for the host's cores (a worker the master outruns computes
		// nothing) — small next to the 3.5 ms a modelled bcc iteration
		// lasts at this TimeScale. The race detector makes each gradient
		// ≈ 0.4 ms, so under it that contention sets the wall.
		job, err := core.NewJob(core.Spec{
			DataPoints: n * pointsPerUnit, Dim: 100, Examples: n, Workers: n, Load: load,
			Scheme: scheme, Iterations: iters, Seed: seed, Latency: lat,
			Runtime: rt, TimeScale: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s on %s: %v", scheme, rt, err)
		}
		walls := make([]float64, len(res.Iters))
		for i, it := range res.Iters {
			walls[i] = it.Wall
		}
		return stats.Median(walls), res.AvgWorkersHeard
	}
	bccWall, bccK := run(core.SchemeBCC, r, core.RuntimeTCP)
	cycWall, cycK := run(core.SchemeCyclicRep, r, core.RuntimeTCP)
	uncWall, uncK := run(core.SchemeUncoded, 1, core.RuntimeTCP)
	t.Logf("tcp: bcc K=%.1f wall=%.4fs  cyclicrep K=%.1f wall=%.4fs  uncoded K=%.1f wall=%.4fs",
		bccK, bccWall, cycK, cycWall, uncK, uncWall)
	if !(bccK < cycK && cycK < uncK) {
		t.Errorf("recovery thresholds out of order: bcc %.1f, cyclicrep %.1f, uncoded %.1f", bccK, cycK, uncK)
	}
	if !(bccWall < cycWall && cycWall < uncWall) {
		t.Errorf("median iteration walls out of order: bcc %.4f, cyclicrep %.4f, uncoded %.4f", bccWall, cycWall, uncWall)
	}
	simWall, _ := run(core.SchemeBCC, r, core.RuntimeSim)
	t.Logf("bcc median wall: tcp %.4fs, sim %.4fs (%.2fx)", bccWall, simWall, bccWall/simWall)
	if raceEnabled {
		return // the detector's instrumentation, not the runtime, sets the wall
	}
	if bccWall > 2*simWall {
		t.Errorf("bcc on tcp takes %.2fx the simulated iteration (%.4fs vs %.4fs), want <= 2x", bccWall/simWall, bccWall, simWall)
	}
}

func TestTable1Breakdown(t *testing.T) {
	tab := mustRun(t, "table1")
	for i, row := range tab.Rows {
		comm := cellFloat(t, tab, i, 2)
		comp := cellFloat(t, tab, i, 3)
		total := cellFloat(t, tab, i, 4)
		if math.Abs(comm+comp-total) > 0.01*total {
			t.Fatalf("%s: comm+comp != total (%v + %v vs %v)", row[0], comm, comp, total)
		}
		if comm <= comp {
			t.Fatalf("%s: communication should dominate computation (%v vs %v)", row[0], comm, comp)
		}
	}
}

func TestFig5Reduction(t *testing.T) {
	tab := mustRun(t, "fig5")
	lb := cellFloat(t, tab, 0, 1)
	bcc := cellFloat(t, tab, 1, 1)
	if bcc >= lb {
		t.Fatalf("generalized BCC %v not faster than LB %v", bcc, lb)
	}
}

func TestTheorem1RelativeError(t *testing.T) {
	tab := mustRun(t, "theorem1")
	for i := range tab.Rows {
		analytic := cellFloat(t, tab, i, 2)
		measured := cellFloat(t, tab, i, 3)
		if math.Abs(measured-analytic)/analytic > 0.25 {
			t.Fatalf("row %d: measured %v vs analytic %v", i, measured, analytic)
		}
	}
}

func TestTheorem2BoundsOrdered(t *testing.T) {
	tab := mustRun(t, "theorem2")
	lower := cellFloat(t, tab, 1, 1)
	upper := cellFloat(t, tab, 2, 1)
	if lower >= upper {
		t.Fatalf("lower %v >= upper %v", lower, upper)
	}
}

func TestCommLoadBestOfBoth(t *testing.T) {
	tab := mustRun(t, "commload")
	for i := range tab.Rows {
		bccM := cellFloat(t, tab, i, 2)
		rndM := cellFloat(t, tab, i, 4)
		if bccM > rndM+1e-9 {
			t.Fatalf("row %d: BCC load %v exceeds randomized %v", i, bccM, rndM)
		}
	}
}

func TestTailBoundHolds(t *testing.T) {
	tab := mustRun(t, "tailbound")
	for i := range tab.Rows {
		emp := cellFloat(t, tab, i, 2)
		bound := cellFloat(t, tab, i, 3)
		if emp > bound+0.02 {
			t.Fatalf("row %d: empirical %v above bound %v", i, emp, bound)
		}
	}
}

func TestFractionalBetweenCRAndBCC(t *testing.T) {
	tab := mustRun(t, "fractional")
	for i := range tab.Rows {
		cr := cellFloat(t, tab, i, 1)
		fr := cellFloat(t, tab, i, 3)
		if fr > cr+1e-6 {
			t.Fatalf("row %d: FR measured %v worse than CR worst case %v", i, fr, cr)
		}
	}
}

func TestMultiBatchAblation(t *testing.T) {
	tab := mustRun(t, "multibatch")
	// Communication grows with K; the threshold must not improve.
	prevComm := 0.0
	baseK := cellFloat(t, tab, 0, 4)
	for i := range tab.Rows {
		comm := cellFloat(t, tab, i, 5)
		if comm <= prevComm {
			t.Fatalf("row %d: comm %v did not grow", i, comm)
		}
		prevComm = comm
		if k := cellFloat(t, tab, i, 4); k < 0.9*baseK {
			t.Fatalf("row %d: threshold %v improved over K=1's %v", i, k, baseK)
		}
	}
}

func TestApproxTradeoff(t *testing.T) {
	tab := mustRun(t, "approx")
	// Threshold must increase with phi; every loss must be below ln 2
	// (training made progress even with partial gradients).
	prev := 0.0
	for i := range tab.Rows {
		k := cellFloat(t, tab, i, 2)
		if k < prev {
			t.Fatalf("row %d: measured K %v decreased", i, k)
		}
		prev = k
		if loss := cellFloat(t, tab, i, 3); loss >= math.Ln2 {
			t.Fatalf("row %d: final loss %v shows no training progress", i, loss)
		}
	}
}

func TestSkewInflation(t *testing.T) {
	tab := mustRun(t, "skew")
	// The analytic column is exact and must strictly inflate with s; the
	// measured column tracks it within MC noise. Endpoints must show clear
	// inflation.
	prevAnalytic := 0.0
	for i := range tab.Rows {
		analytic := cellFloat(t, tab, i, 1)
		if analytic <= prevAnalytic {
			t.Fatalf("row %d: analytic threshold %v not inflating", i, analytic)
		}
		prevAnalytic = analytic
		measured := cellFloat(t, tab, i, 2)
		if math.Abs(measured-analytic)/analytic > 0.3 {
			t.Fatalf("row %d: measured %v far from weighted-collector analytic %v", i, measured, analytic)
		}
	}
	first := cellFloat(t, tab, 0, 2)
	last := cellFloat(t, tab, len(tab.Rows)-1, 2)
	if last <= first {
		t.Fatalf("most-skewed threshold %v not above uniform %v", last, first)
	}
}

func TestHeteroTrainSpeedup(t *testing.T) {
	tab := mustRun(t, "heterotrain")
	lbWall := cellFloat(t, tab, 0, 1)
	gWall := cellFloat(t, tab, 1, 1)
	if gWall >= lbWall {
		t.Fatalf("generalized BCC wall %v not below LB %v", gWall, lbWall)
	}
	// Exact gradients on both sides: final losses must agree closely.
	lbLoss := cellFloat(t, tab, 0, 3)
	gLoss := cellFloat(t, tab, 1, 3)
	if math.Abs(lbLoss-gLoss) > 1e-6+0.01*math.Abs(lbLoss) {
		t.Fatalf("losses diverged: LB %v vs gBCC %v", lbLoss, gLoss)
	}
}

func TestConvergenceOrdering(t *testing.T) {
	tab := mustRun(t, "convergence")
	// Rows: uncoded, cyclicrep, bcc; time-to-target must strictly improve.
	unc := cellFloat(t, tab, 0, 3)
	cr := cellFloat(t, tab, 1, 3)
	bccT := cellFloat(t, tab, 2, 3)
	if !(bccT < cr && cr < unc) {
		t.Fatalf("time-to-target out of order: uncoded %v, cr %v, bcc %v", unc, cr, bccT)
	}
	// Same iterations-to-target across exact schemes.
	if tab.Rows[0][2] != tab.Rows[2][2] {
		t.Fatalf("iterations-to-target differ: %v vs %v", tab.Rows[0][2], tab.Rows[2][2])
	}
}

func TestScalingSpeedupPersists(t *testing.T) {
	tab := mustRun(t, "scaling")
	for i := range tab.Rows {
		bccT := cellFloat(t, tab, i, 2)
		uncT := cellFloat(t, tab, i, 4)
		if bccT >= uncT {
			t.Fatalf("row %d: BCC %v not faster than uncoded %v", i, bccT, uncT)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "nope", quickOpt(), nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := mustRun(t, "tailbound")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "tailbound") || !strings.Contains(out, "note:") {
		t.Fatalf("render output missing pieces:\n%s", out)
	}
	buf.Reset()
	tab.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tab.Rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(tab.Rows))
	}
	if !strings.HasPrefix(lines[0], "eps,") {
		t.Fatalf("CSV header %q", lines[0])
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{ID: "x", Columns: []string{"a"}, Rows: [][]string{{`say "hi", ok`}}}
	var buf bytes.Buffer
	tab.CSV(&buf)
	if !strings.Contains(buf.String(), `"say ""hi"", ok"`) {
		t.Fatalf("CSV escaping wrong: %q", buf.String())
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() returned %d of %d experiments", len(names), len(registry))
	}
}

// TestRunAllQuick pins every table's rendered output at quick sizes and seed
// 7, so a refactor of a scheme's placement, encode or decode that moves a
// single figure shows up as a diff. Regenerate after an INTENTIONAL change
// with:
//
//	go test ./internal/experiments -run TestRunAllQuick -update-golden
func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	tables, err := RunAll(context.Background(), quickOpt(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(registry) {
		t.Fatalf("RunAll produced %d tables", len(tables))
	}
	path := filepath.Join("testdata", "runall_quick.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("RunAll output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2.0:    "2",
		0.125:  "0.125",
		10.100: "10.1",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Fatalf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
