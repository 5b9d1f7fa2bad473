package coding

import (
	"math"
	"testing"

	"bcc/internal/linalg"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

const gradDim = 6

// makeGradients builds m deterministic pseudo-random unit gradients and
// their total sum.
func makeGradients(m int, rng *rngutil.RNG) ([][]float64, []float64) {
	gs := make([][]float64, m)
	total := make([]float64, gradDim)
	for u := 0; u < m; u++ {
		g := make([]float64, gradDim)
		for t := range g {
			g[t] = rng.Normal()
		}
		gs[u] = g
		vecmath.AddInto(total, g)
	}
	return gs, total
}

// encodeWorker runs a worker's side of the protocol: gather its partial
// gradients per the plan's assignment and encode.
func encodeWorker(p Plan, w int, gs [][]float64) []Message {
	assign := p.Assignments()[w]
	parts := make([][]float64, len(assign))
	for k, u := range assign {
		parts[k] = gs[u]
	}
	return Encode(p, w, parts)
}

// driveDecoder feeds workers' messages in the given order until decodable;
// returns the decoded sum and the number of workers consumed, or -1 if the
// order was exhausted without decoding.
func driveDecoder(t *testing.T, p Plan, gs [][]float64, order []int) ([]float64, int) {
	t.Helper()
	dec := p.NewDecoder()
	for i, w := range order {
		for _, msg := range encodeWorker(p, w, gs) {
			dec.Offer(msg)
		}
		if dec.Decodable() {
			out, err := Decode(dec, gradDim)
			if err != nil {
				t.Fatalf("decodable decoder failed to decode: %v", err)
			}
			return out, i + 1
		}
	}
	return nil, -1
}

// checkExact asserts the decoded vector equals the true total.
func checkExact(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: decoder never became decodable", name)
	}
	if d := vecmath.MaxAbsDiff(got, want); d > 1e-8*(1+vecmath.NormInf(want)) {
		t.Fatalf("%s: decode error %v", name, d)
	}
}

// planFor builds a plan for the named scheme, skipping the combination when
// the scheme rejects it structurally.
func planFor(t *testing.T, name string, m, n, r int, rng *rngutil.RNG) Plan {
	t.Helper()
	s, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan(m, n, r, rng)
	if err != nil {
		t.Skipf("%s rejects m=%d n=%d r=%d: %v", name, m, n, r, err)
	}
	return p
}

// ---------------------------------------------------------------------------
// Cross-scheme exactness
// ---------------------------------------------------------------------------

func TestAllSchemesDecodeExactly(t *testing.T) {
	configs := []struct{ m, n, r int }{
		{12, 12, 3}, {12, 12, 4}, {20, 20, 5}, {10, 10, 1}, {16, 16, 2},
	}
	for _, name := range Names() {
		if name == "bccapprox" {
			continue // approximate by design; exactness covered in bccext_test.go
		}
		for _, cfg := range configs {
			rng := rngutil.New(uint64(cfg.m*1000 + cfg.r))
			t.Run(name, func(t *testing.T) {
				p := planFor(t, name, cfg.m, cfg.n, cfg.r, rng)
				gs, want := makeGradients(cfg.m, rng)
				// Natural order.
				got, _ := driveDecoder(t, p, gs, seq(cfg.n))
				checkExact(t, name, got, want)
				// Random arrival order — stragglers at the front.
				got2, _ := driveDecoder(t, p, gs, rng.Perm(cfg.n))
				checkExact(t, name+"/permuted", got2, want)
			})
		}
	}
}

// TestMessagesMatchesEncode pins Plan.Messages, which the simulator uses to
// model a worker's upload without computing its gradient: for every scheme,
// idle workers and every nested level included, EncodeInto emits exactly
// Messages(w) messages, each carrying one unit.
func TestMessagesMatchesEncode(t *testing.T) {
	rng := rngutil.New(950)
	check := func(t *testing.T, p Plan) {
		t.Helper()
		m, n, _ := p.Params()
		gs, _ := makeGradients(m, rng)
		level := 0
		if rp, ok := p.(Retunable); ok {
			level = rp.Level()
		}
		for w := 0; w < n; w++ {
			assign := p.Assignments()[w]
			if level > 0 {
				assign = assign[:level]
			}
			parts := make([][]float64, len(assign))
			for k, u := range assign {
				parts[k] = gs[u]
			}
			msgs := p.EncodeInto(nil, w, parts, nil)
			if len(msgs) != p.Messages(w) {
				t.Fatalf("worker %d: EncodeInto emits %d messages, Messages says %d", w, len(msgs), p.Messages(w))
			}
			for _, msg := range msgs {
				if msg.Units != 1 {
					t.Fatalf("worker %d: message carries %v units, want 1", w, msg.Units)
				}
			}
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := planFor(t, name, 12, 12, 3, rng)
			rp, ok := p.(Retunable)
			if !ok {
				check(t, p)
				return
			}
			for L := rp.MinLevel(); L <= rp.MaxLevel(); L++ {
				if err := rp.SetLevel(L); err != nil {
					t.Fatal(err)
				}
				check(t, p)
			}
		})
	}
	// Idle workers, and the two schemes built directly from per-worker loads.
	extra := []struct {
		s       Scheme
		m, n, r int
	}{
		{Uncoded{}, 3, 6, 1}, // workers 3..5 hold no data
		{GeneralizedBCC{Loads: []int{4, 3, 0, 2, 3, 4}}, 12, 6, 4},
		{Partitioned{Loads: []int{3, 0, 4, 2, 3, 0}}, 12, 6, 4},
	}
	for _, c := range extra {
		t.Run(c.s.Name(), func(t *testing.T) {
			p, err := c.s.Plan(c.m, c.n, c.r, rng)
			if err != nil {
				t.Fatal(err)
			}
			check(t, p)
			idle := 0
			for w := 0; w < c.n; w++ {
				if p.Messages(w) == 0 {
					idle++
				}
			}
			if idle == 0 {
				t.Fatal("no idle worker: the case does not exercise Messages(w) == 0")
			}
		})
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestSchemesRespectComputationalLoad(t *testing.T) {
	rng := rngutil.New(7)
	for _, name := range Names() {
		p := planFor(t, name, 20, 20, 4, rng)
		_, _, r := p.Params()
		for w, a := range p.Assignments() {
			if len(a) > r {
				t.Fatalf("%s: worker %d assigned %d > r=%d examples", name, w, len(a), r)
			}
			seen := map[int]bool{}
			for _, u := range a {
				if u < 0 || u >= 20 || seen[u] {
					t.Fatalf("%s: worker %d has invalid/duplicate example %d", name, w, u)
				}
				seen[u] = true
			}
		}
	}
}

func TestSchemesCoverage(t *testing.T) {
	rng := rngutil.New(8)
	for _, name := range Names() {
		p := planFor(t, name, 24, 24, 4, rng)
		if !coverageFeasible(24, p.Assignments()) {
			t.Fatalf("%s: plan does not cover all examples", name)
		}
	}
}

// ---------------------------------------------------------------------------
// Worst-case straggler tolerance (coded schemes)
// ---------------------------------------------------------------------------

// exhaustively check every (n-s)-subset decodes, for small n.
func testWorstCaseExhaustive(t *testing.T, name string, m, n, r int) {
	t.Helper()
	rng := rngutil.New(42)
	p := planFor(t, name, m, n, r, rng)
	k := p.WorstCaseThreshold()
	if k < 0 {
		t.Fatalf("%s should have a deterministic threshold", name)
	}
	gs, want := makeGradients(m, rng)
	subset := make([]int, k)
	var rec func(start, idx int)
	count := 0
	rec = func(start, idx int) {
		if idx == k {
			got, _ := driveDecoder(t, p, gs, subset)
			checkExact(t, name, got, want)
			count++
			return
		}
		for v := start; v <= n-(k-idx); v++ {
			subset[idx] = v
			rec(v+1, idx+1)
		}
	}
	rec(0, 0)
	if count == 0 {
		t.Fatal("no subsets enumerated")
	}
}

func TestCyclicRepToleratesAnyStragglers(t *testing.T) {
	testWorstCaseExhaustive(t, "cyclicrep", 9, 9, 3) // C(9,7) = 36 subsets
}

func TestFractionalToleratesAnyStragglers(t *testing.T) {
	testWorstCaseExhaustive(t, "fractional", 9, 9, 3)
}

func TestCodedSchemesRandomSubsetsLargerN(t *testing.T) {
	rng := rngutil.New(43)
	for _, name := range []string{"cyclicrep"} {
		p := planFor(t, name, 30, 30, 6, rng)
		k := p.WorstCaseThreshold() // 25
		gs, want := makeGradients(30, rng)
		for trial := 0; trial < 25; trial++ {
			subset := rng.Sample(30, k)
			got, _ := driveDecoder(t, p, gs, subset)
			checkExact(t, name, got, want)
		}
	}
}

// TestCyclicRepDecodesEveryThresholdSubset is the conditioning judge for the
// cyclic code at the paper's sizes: for every (n, r) cell and every plan
// seed, random (n-s)-subsets of workers must all decode after exactly n-s
// offers, with decoding coefficients a whose residual max|aᵀB_W - 1ᵀ| is
// at most 1e-7 — ten times tighter than the decoder's own 1e-6 acceptance.
func TestCyclicRepDecodesEveryThresholdSubset(t *testing.T) {
	const plans, subsets, tol = 5, 200, 1e-7
	for _, c := range []struct{ n, r int }{{8, 3}, {20, 5}, {50, 10}, {100, 10}} {
		worst := 0.0
		for seed := uint64(1); seed <= plans; seed++ {
			rng := rngutil.New(seed)
			p := planFor(t, "cyclicrep", c.n, c.n, c.r, rng).(*codedPlan)
			k := c.n - p.s
			dec := p.NewDecoder().(*codedDecoder)
			bt := vecmath.NewMatrix(c.n, k)
			for trial := 0; trial < subsets; trial++ {
				dec.Reset()
				subset := rng.Sample(c.n, k)
				for i, w := range subset {
					decodable := dec.Offer(Message{From: w, Tag: -1, Vec: []float64{0}, Units: 1})
					if decodable != (i == k-1) {
						t.Fatalf("n=%d r=%d seed %d: Decodable after %d of %d offers = %v (subset %v)",
							c.n, c.r, seed, i+1, k, decodable, subset)
					}
				}
				for col, w := range subset {
					for u := 0; u < c.n; u++ {
						bt.Set(u, col, p.b.At(w, u))
					}
				}
				res := linalg.Residual(bt, dec.coeffs, p.ones)
				if res > tol {
					t.Fatalf("n=%d r=%d seed %d: residual %.3g > %g (subset %v)", c.n, c.r, seed, res, tol, subset)
				}
				worst = max(worst, res)
			}
		}
		t.Logf("n=%d r=%d: %d plans x %d subsets, worst residual %.2g", c.n, c.r, plans, subsets, worst)
	}
}

// TestCyclicRepSmallPlansAreWellConditioned decodes every (n-s)-subset of
// small cyclic codes, where Plan checks them all, and requires each decode
// to amplify the coded messages' rounding by at most maxAmplification:
// max_u sum_i |a_i B[i][u]| over the responders i.
func TestCyclicRepSmallPlansAreWellConditioned(t *testing.T) {
	for _, c := range []struct{ n, r int }{{6, 2}, {8, 3}, {10, 3}} {
		for seed := uint64(1); seed <= 100; seed++ {
			p := planFor(t, "cyclicrep", c.n, c.n, c.r, rngutil.New(seed)).(*codedPlan)
			dec := p.NewDecoder().(*codedDecoder)
			subset := make([]int, 0, c.n)
			for mask := 0; mask < 1<<c.n; mask++ {
				subset = subset[:0]
				for w := 0; w < c.n; w++ {
					if mask>>w&1 == 1 {
						subset = append(subset, w)
					}
				}
				if len(subset) != c.n-p.s {
					continue
				}
				dec.Reset()
				for _, w := range subset {
					dec.Offer(Message{From: w, Tag: -1, Vec: []float64{0}, Units: 1})
				}
				if !dec.Decodable() {
					t.Fatalf("n=%d r=%d seed %d: responders %v do not decode", c.n, c.r, seed, subset)
				}
				for u := 0; u < c.n; u++ {
					amp := 0.0
					for i, w := range subset {
						amp += math.Abs(dec.coeffs[i] * p.b.At(w, u))
					}
					if amp > maxAmplification {
						t.Fatalf("n=%d r=%d seed %d: responders %v amplify example %d by %.3g > %g",
							c.n, c.r, seed, subset, u, amp, maxAmplification)
					}
				}
			}
		}
	}
}

func TestCyclicRepThresholdValue(t *testing.T) {
	rng := rngutil.New(44)
	p := planFor(t, "cyclicrep", 50, 50, 10, rng)
	if got := p.WorstCaseThreshold(); got != 41 {
		t.Fatalf("CR threshold = %d, want m-r+1 = 41 (paper eq. 7)", got)
	}
	if got := p.ExpectedThreshold(); got != 41 {
		t.Fatalf("CR expected threshold = %v", got)
	}
}

func TestCyclicRepCannotDecodeBelowThreshold(t *testing.T) {
	// With the cyclic construction, fewer than n-s generic workers cannot
	// span the all-ones vector.
	rng := rngutil.New(45)
	p := planFor(t, "cyclicrep", 10, 10, 3, rng)
	gs, _ := makeGradients(10, rng)
	dec := p.NewDecoder()
	for w := 0; w < p.WorstCaseThreshold()-1; w++ {
		for _, msg := range encodeWorker(p, w, gs) {
			if dec.Offer(msg) {
				t.Fatalf("decodable after only %d workers (< threshold %d)", w+1, p.WorstCaseThreshold())
			}
		}
	}
	if _, err := Decode(dec, gradDim); err != ErrNotDecodable {
		t.Fatalf("expected ErrNotDecodable, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// BCC specifics
// ---------------------------------------------------------------------------

func TestBCCBatchStructure(t *testing.T) {
	rng := rngutil.New(50)
	p := planFor(t, "bcc", 50, 50, 10, rng).(*coveragePlan)
	if p.slots != 5 {
		t.Fatalf("batches = %d, want 5", p.slots)
	}
	// Every worker's assignment is exactly one batch: r consecutive ids
	// starting at a multiple of r.
	for w := 0; w < 50; w++ {
		a := p.Assignments()[w]
		if len(a) != 10 {
			t.Fatalf("worker %d assigned %d examples", w, len(a))
		}
		if a[0]%10 != 0 {
			t.Fatalf("worker %d batch starts at %d", w, a[0])
		}
		for k := 1; k < len(a); k++ {
			if a[k] != a[0]+k {
				t.Fatalf("worker %d batch not contiguous", w)
			}
		}
		if g := p.groups[w]; len(g) != 1 || g[0].tag != a[0]/10 {
			t.Fatalf("worker %d sends %v, want one message tagged batch %d", w, g, a[0]/10)
		}
	}
}

func TestBCCShortLastBatch(t *testing.T) {
	rng := rngutil.New(51)
	p := planFor(t, "bcc", 10, 20, 3, rng).(*coveragePlan)
	if p.slots != 4 {
		t.Fatalf("batches = %d, want ceil(10/3)=4", p.slots)
	}
	gs, want := makeGradients(10, rng)
	got, _ := driveDecoder(t, p, gs, seq(20))
	checkExact(t, "bcc short batch", got, want)
}

func TestBCCExpectedThresholdFormula(t *testing.T) {
	rng := rngutil.New(52)
	p := planFor(t, "bcc", 50, 50, 10, rng)
	want := 5 * (1 + 0.5 + 1.0/3 + 0.25 + 0.2)
	if got := p.ExpectedThreshold(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E[K] = %v, want 5*H_5 = %v", got, want)
	}
}

func TestBCCThresholdStatisticsMatchTheory(t *testing.T) {
	// Monte-Carlo over placements AND arrival orders: the average number of
	// workers heard before coverage should approach ceil(m/r)*H.
	rng := rngutil.New(53)
	m, n, r := 40, 200, 10 // N = 4 batches, plenty of workers
	scheme, _ := Lookup("bcc")
	gs, _ := makeGradients(m, rng)
	var sum float64
	const trials = 400
	for i := 0; i < trials; i++ {
		p, err := scheme.Plan(m, n, r, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, heard := driveDecoder(t, p, gs, rng.Perm(n))
		if heard < 0 {
			t.Fatal("infeasible plan escaped the feasibility check")
		}
		sum += float64(heard)
	}
	got := sum / trials
	want := 4 * (1 + 0.5 + 1.0/3 + 0.25) // 4*H_4 ~ 8.33
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("measured E[K] = %v, theory %v", got, want)
	}
}

func TestBCCDuplicateBatchesDiscarded(t *testing.T) {
	rng := rngutil.New(54)
	p := planFor(t, "bcc", 12, 30, 4, rng)
	gs, want := makeGradients(12, rng)
	// Feed every worker; duplicates of already-covered batches must not
	// corrupt the sum.
	dec := p.NewDecoder()
	for w := 0; w < 30; w++ {
		for _, msg := range encodeWorker(p, w, gs) {
			dec.Offer(msg)
		}
	}
	got, err := Decode(dec, gradDim)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "bcc duplicates", got, want)
}

func TestBCCInfeasibleWhenTooFewWorkers(t *testing.T) {
	scheme, _ := Lookup("bcc")
	// 10 batches but only 5 workers: structurally impossible.
	if _, err := scheme.Plan(100, 5, 10, rngutil.New(1)); err == nil {
		t.Fatal("expected error when m/r > n")
	}
}

func TestBCCNilRNG(t *testing.T) {
	scheme, _ := Lookup("bcc")
	if _, err := scheme.Plan(10, 10, 2, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

// ---------------------------------------------------------------------------
// Randomized specifics
// ---------------------------------------------------------------------------

func TestRandomizedMessageGranularity(t *testing.T) {
	rng := rngutil.New(60)
	p := planFor(t, "randomized", 20, 20, 5, rng)
	gs, _ := makeGradients(20, rng)
	msgs := encodeWorker(p, 0, gs)
	if len(msgs) != 5 {
		t.Fatalf("randomized worker sent %d messages, want r=5", len(msgs))
	}
	for _, m := range msgs {
		if m.Units != 1 {
			t.Fatalf("unit message has Units=%v", m.Units)
		}
	}
	if p.CommLoadPerWorker() != 5 {
		t.Fatalf("CommLoadPerWorker = %v", p.CommLoadPerWorker())
	}
}

func TestRandomizedCommunicationLoadExceedsBCC(t *testing.T) {
	// The headline contrast of the paper: same threshold scaling, but the
	// randomized scheme pays ~r times the communication.
	rng := rngutil.New(61)
	m, n, r := 30, 120, 5
	bccPlan := planFor(t, "bcc", m, n, r, rng)
	rndPlan := planFor(t, "randomized", m, n, r, rng)
	gs, _ := makeGradients(m, rng)

	bccDec := bccPlan.NewDecoder()
	rndDec := rndPlan.NewDecoder()
	order := rng.Perm(n)
	for _, w := range order {
		if !bccDec.Decodable() {
			for _, msg := range encodeWorker(bccPlan, w, gs) {
				bccDec.Offer(msg)
			}
		}
		if !rndDec.Decodable() {
			for _, msg := range encodeWorker(rndPlan, w, gs) {
				rndDec.Offer(msg)
			}
		}
	}
	if !bccDec.Decodable() || !rndDec.Decodable() {
		t.Fatal("decoders did not finish")
	}
	if rndDec.UnitsReceived() <= bccDec.UnitsReceived() {
		t.Fatalf("randomized units %v should exceed BCC units %v",
			rndDec.UnitsReceived(), bccDec.UnitsReceived())
	}
}

// ---------------------------------------------------------------------------
// Fractional specifics
// ---------------------------------------------------------------------------

func TestFractionalExpectedThresholdMatchesMC(t *testing.T) {
	rng := rngutil.New(70)
	p := planFor(t, "fractional", 20, 20, 4, rng)
	want := p.ExpectedThreshold()
	gs, _ := makeGradients(20, rng)
	var sum float64
	const trials = 3000
	for i := 0; i < trials; i++ {
		_, heard := driveDecoder(t, p, gs, rng.Perm(20))
		sum += float64(heard)
	}
	got := sum / trials
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("fractional E[K]: MC %v vs analytic %v", got, want)
	}
}

func TestFractionalEarlyFinish(t *testing.T) {
	// Footnote 2 of the paper: FR may finish before m-r+1 workers. With a
	// favourable order (one worker per block first), it finishes after
	// exactly n/r workers.
	rng := rngutil.New(71)
	p := planFor(t, "fractional", 20, 20, 4, rng)
	gs, want := makeGradients(20, rng)
	order := []int{0, 1, 2, 3, 4} // workers 0..4 hold blocks 0..4 (n/r = 5)
	got, heard := driveDecoder(t, p, gs, order)
	checkExact(t, "fractional early", got, want)
	if heard != 5 {
		t.Fatalf("finished after %d workers, want 5", heard)
	}
}

func TestFractionalRejectsBadShapes(t *testing.T) {
	scheme, _ := Lookup("fractional")
	if _, err := scheme.Plan(10, 10, 3, rngutil.New(1)); err == nil {
		t.Fatal("r must divide n")
	}
	if _, err := scheme.Plan(9, 10, 2, rngutil.New(1)); err == nil {
		t.Fatal("m must equal n")
	}
}

// ---------------------------------------------------------------------------
// Registry & misc
// ---------------------------------------------------------------------------

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"bcc", "bccapprox", "bccmulti", "cyclicrep", "fractional", "nested", "randomized", "uncoded"}
	if len(names) != len(want) {
		t.Fatalf("registry = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry = %v, want %v", names, want)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown scheme should error")
	}
}

func TestUncodedWaitsForAllWorkers(t *testing.T) {
	rng := rngutil.New(80)
	p := planFor(t, "uncoded", 20, 20, 1, rng)
	gs, want := makeGradients(20, rng)
	got, heard := driveDecoder(t, p, gs, rng.Perm(20))
	checkExact(t, "uncoded", got, want)
	if heard != 20 {
		t.Fatalf("uncoded finished after %d workers, want all 20", heard)
	}
	if p.WorstCaseThreshold() != 20 {
		t.Fatalf("uncoded threshold %d", p.WorstCaseThreshold())
	}
}

func TestUncodedUnevenPartition(t *testing.T) {
	rng := rngutil.New(81)
	p := planFor(t, "uncoded", 23, 5, 5, rng)
	gs, want := makeGradients(23, rng)
	got, _ := driveDecoder(t, p, gs, seq(5))
	checkExact(t, "uncoded uneven", got, want)
}

func TestUncodedMoreWorkersThanExamples(t *testing.T) {
	rng := rngutil.New(82)
	p := planFor(t, "uncoded", 3, 6, 1, rng)
	gs, want := makeGradients(3, rng)
	got, heard := driveDecoder(t, p, gs, seq(6))
	checkExact(t, "uncoded sparse", got, want)
	if heard > 3 {
		t.Fatalf("waited for %d workers; only 3 hold data", heard)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	for _, name := range Names() {
		s, _ := Lookup(name)
		if _, err := s.Plan(0, 5, 1, rngutil.New(1)); err == nil {
			t.Fatalf("%s accepted m=0", name)
		}
		if _, err := s.Plan(10, 10, 11, rngutil.New(1)); err == nil {
			t.Fatalf("%s accepted r > m", name)
		}
	}
}

func TestEncodePanicsOnWrongArity(t *testing.T) {
	rng := rngutil.New(90)
	p := planFor(t, "bcc", 12, 12, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with wrong arity did not panic")
		}
	}()
	Encode(p, 0, [][]float64{{1, 2, 3}})
}

func TestOfferAfterDecodableIsIgnored(t *testing.T) {
	rng := rngutil.New(91)
	p := planFor(t, "bcc", 12, 40, 3, rng)
	gs, want := makeGradients(12, rng)
	dec := p.NewDecoder()
	var doneAt int
	for w := 0; w < 40; w++ {
		for _, msg := range encodeWorker(p, w, gs) {
			dec.Offer(msg)
		}
		if dec.Decodable() && doneAt == 0 {
			doneAt = dec.WorkersHeard()
		}
	}
	if dec.WorkersHeard() != doneAt {
		t.Fatalf("WorkersHeard moved after decodability: %d -> %d", doneAt, dec.WorkersHeard())
	}
	got, _ := Decode(dec, gradDim)
	checkExact(t, "late offers", got, want)
}

// ---------------------------------------------------------------------------
// Responder-subset properties (fault-injection support)
// ---------------------------------------------------------------------------

// subsetCase feeds exactly one responder subset (in the given worker order)
// into a freshly Reset decoder and checks the subset-level contracts:
//
//   - any subset of size >= WorstCaseThreshold (when the plan declares one)
//     must be decodable — the "always sufficient" guarantee;
//   - any subset SMALLER than MinResponders must never be decodable, and
//     Offer must never have reported ready — the converse bound the master
//     engine's explicit degradation rests on;
//   - whenever the decoder reports decodable, DecodeInto must reproduce the
//     exact uncoded full gradient (bccapprox excepted: it rescales a
//     partial sum by design);
//   - the last Offer verdict, Decodable and DecodeInto's error must agree.
func subsetCase(t *testing.T, name string, p Plan, dec Decoder, gs [][]float64, total []float64, sub []int) {
	t.Helper()
	dec.Reset()
	anyReady := false
	for _, w := range sub {
		for _, msg := range encodeWorker(p, w, gs) {
			if dec.Offer(msg) {
				anyReady = true
			}
		}
	}
	if anyReady != dec.Decodable() {
		t.Fatalf("%s subset %v: Offer reported ready=%v but Decodable=%v", name, sub, anyReady, dec.Decodable())
	}
	minR := MinResponders(p)
	if dec.Decodable() {
		if len(sub) < minR {
			t.Fatalf("%s: subset %v of %d workers decodable below MinResponders %d", name, sub, len(sub), minR)
		}
		out, err := Decode(dec, gradDim)
		if err != nil {
			t.Fatalf("%s subset %v: decodable decoder failed: %v", name, sub, err)
		}
		if name != "bccapprox" {
			checkExact(t, name, out, total)
		}
		return
	}
	if wct := p.WorstCaseThreshold(); wct >= 0 && len(sub) >= wct {
		t.Fatalf("%s: subset %v has %d workers >= worst-case threshold %d but is not decodable",
			name, sub, len(sub), wct)
	}
	if err := dec.DecodeInto(make([]float64, gradDim)); err != ErrNotDecodable {
		t.Fatalf("%s subset %v: early DecodeInto returned %v, want ErrNotDecodable", name, sub, err)
	}
}

// TestDecoderSubsetProperties checks the subset contracts for every
// registered scheme: exhaustively over all 2^6 responder subsets of a small
// plan, then over random subsets in random arrival orders of a larger one.
// One decoder is reused across every subset, so Reset isolation is
// exercised a few hundred times per scheme as a side effect.
func TestDecoderSubsetProperties(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := rngutil.New(4242)
			small := planFor(t, name, 6, 6, 2, rng.Split())
			gs, total := makeGradients(6, rng.Split())
			dec := small.NewDecoder()
			for mask := 0; mask < 1<<6; mask++ {
				var sub []int
				for w := 0; w < 6; w++ {
					if mask&(1<<w) != 0 {
						sub = append(sub, w)
					}
				}
				subsetCase(t, name, small, dec, gs, total, sub)
			}

			big := planFor(t, name, 12, 12, 3, rng.Split())
			gsBig, totalBig := makeGradients(12, rng.Split())
			decBig := big.NewDecoder()
			for trial := 0; trial < 120; trial++ {
				perm := rng.Perm(12)
				sub := perm[:1+rng.Intn(12)]
				subsetCase(t, name, big, decBig, gsBig, totalBig, sub)
			}
		})
	}
}

// TestMinRespondersBounds pins the per-scheme converse bounds themselves:
// the exact overrides where they are known, the generic coverage bound
// elsewhere, and consistency with WorstCaseThreshold (a set that is always
// sufficient can never be smaller than one that is certainly insufficient).
func TestMinRespondersBounds(t *testing.T) {
	rng := rngutil.New(77)
	cases := []struct {
		name    string
		m, n, r int
		want    int
	}{
		{"uncoded", 12, 12, 1, 12},   // every holder required
		{"uncoded", 6, 12, 1, 6},     // only the data-holding workers count
		{"cyclicrep", 12, 12, 3, 10}, // the decoder solves only at n-s
		{"bcc", 12, 12, 3, 4},
		{"fractional", 12, 12, 3, 4},
		{"randomized", 12, 12, 3, 4},
	}
	for _, tc := range cases {
		p := planFor(t, tc.name, tc.m, tc.n, tc.r, rng.Split())
		if got := MinResponders(p); got != tc.want {
			t.Errorf("%s(m=%d n=%d r=%d): MinResponders %d, want %d", tc.name, tc.m, tc.n, tc.r, got, tc.want)
		}
	}
	for _, name := range Names() {
		p := planFor(t, name, 12, 12, 3, rng.Split())
		minR := MinResponders(p)
		if minR < 1 {
			t.Errorf("%s: MinResponders %d < 1", name, minR)
		}
		if wct := p.WorstCaseThreshold(); wct >= 0 && minR > wct {
			t.Errorf("%s: MinResponders %d above WorstCaseThreshold %d", name, minR, wct)
		}
	}
}
