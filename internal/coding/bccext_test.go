package coding

import (
	"math"
	"testing"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// ---------------------------------------------------------------------------
// bccmulti
// ---------------------------------------------------------------------------

func TestBCCMultiDecodesExactly(t *testing.T) {
	rng := rngutil.New(700)
	for _, k := range []int{1, 2, 4} {
		plan, err := BCCMulti{K: k}.Plan(24, 60, 4, rng)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		gs, want := makeGradients(24, rng)
		got, _ := driveDecoder(t, plan, gs, rng.Perm(60))
		checkExact(t, "bccmulti", got, want)
	}
}

func TestBCCMultiRespectsLoad(t *testing.T) {
	rng := rngutil.New(701)
	plan, err := BCCMulti{K: 3}.Plan(30, 40, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	for w, a := range plan.Assignments() {
		if len(a) > 6 {
			t.Fatalf("worker %d assigned %d > r=6 examples", w, len(a))
		}
	}
	if plan.CommLoadPerWorker() != 3 {
		t.Fatalf("comm load %v, want K=3", plan.CommLoadPerWorker())
	}
}

func TestBCCMultiMessageGranularity(t *testing.T) {
	rng := rngutil.New(702)
	plan, err := BCCMulti{K: 2}.Plan(12, 30, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs, _ := makeGradients(12, rng)
	msgs := encodeWorker(plan, 0, gs)
	if len(msgs) != 2 {
		t.Fatalf("worker sent %d messages, want K=2", len(msgs))
	}
	if msgs[0].Tag == msgs[1].Tag {
		t.Fatal("two messages with the same batch tag")
	}
}

func TestBCCMultiExpectedThresholdMatchesMC(t *testing.T) {
	rng := rngutil.New(703)
	scheme := BCCMulti{K: 2}
	m, n, r := 24, 200, 4 // batchSize 2 -> 12 batches, draws of 2
	want := coupon.BatchExpectedDraws(12, 2)
	gs, _ := makeGradients(m, rng)
	var sum float64
	const trials = 300
	for i := 0; i < trials; i++ {
		plan, err := scheme.Plan(m, n, r, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, heard := driveDecoder(t, plan, gs, rng.Perm(n))
		sum += float64(heard)
	}
	got := sum / trials
	if math.Abs(got-want) > 0.12*want {
		t.Fatalf("measured E[K] %v vs analytic %v", got, want)
	}
}

func TestBCCMultiAblationConclusion(t *testing.T) {
	// The design-choice ablation: at equal computational load, K=1 (plain
	// BCC) has no worse threshold scaling and strictly lower communication
	// than K=2.
	m, r := 40, 4
	bccK := coupon.ExpectedDraws(10)           // K=1: 10 batches of 4
	multiK := coupon.BatchExpectedDraws(20, 2) // K=2: 20 batches of 2
	if multiK < bccK*0.95 {
		t.Fatalf("multi-batch threshold %v unexpectedly beats BCC %v", multiK, bccK)
	}
	bccComm := bccK * 1
	multiComm := multiK * 2
	if multiComm <= bccComm {
		t.Fatalf("multi-batch comm %v should exceed BCC %v", multiComm, bccComm)
	}
	_ = m
	_ = r
}

func TestBCCMultiRejectsBadShapes(t *testing.T) {
	rng := rngutil.New(704)
	if _, err := (BCCMulti{K: 5}).Plan(10, 10, 3, rng); err == nil {
		t.Fatal("r < K accepted")
	}
	if _, err := (BCCMulti{K: 2}).Plan(10, 10, 12, rng); err == nil {
		t.Fatal("r > m accepted")
	}
	if _, err := (BCCMulti{}).Plan(10, 10, 2, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// ---------------------------------------------------------------------------
// bccapprox
// ---------------------------------------------------------------------------

func TestBCCApproxExactWhenPhiOne(t *testing.T) {
	rng := rngutil.New(710)
	plan, err := BCCApprox{Phi: 1}.Plan(20, 50, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs, want := makeGradients(20, rng)
	got, _ := driveDecoder(t, plan, gs, rng.Perm(50))
	checkExact(t, "bccapprox phi=1", got, want)
}

func TestBCCApproxThresholdBelowExact(t *testing.T) {
	rng := rngutil.New(711)
	approx, err := BCCApprox{Phi: 0.6}.Plan(40, 400, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BCC{}.Plan(40, 400, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if approx.ExpectedThreshold() >= exact.ExpectedThreshold() {
		t.Fatalf("approx threshold %v not below exact %v",
			approx.ExpectedThreshold(), exact.ExpectedThreshold())
	}
	// Measure: approx decoders finish strictly earlier on the same orders.
	gs, _ := makeGradients(40, rng)
	var sumA, sumE float64
	for i := 0; i < 100; i++ {
		order := rng.Perm(400)
		_, hA := driveDecoder(t, approx, gs, order)
		_, hE := driveDecoder(t, exact, gs, order)
		sumA += float64(hA)
		sumE += float64(hE)
	}
	if sumA >= sumE {
		t.Fatalf("approx heard %v on average, exact %v", sumA/100, sumE/100)
	}
}

func TestBCCApproxScaling(t *testing.T) {
	// With phi < 1, the decoded vector must equal (sum of covered batches)
	// * nBatches/covered.
	rng := rngutil.New(712)
	plan, err := BCCApprox{Phi: 0.5}.Plan(16, 200, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if need := plan.(*coveragePlan).need; need != 2 { // ceil(0.5*4)
		t.Fatalf("coverage target %d, want 2", need)
	}
	gs, _ := makeGradients(16, rng)
	dec := plan.NewDecoder()
	var rawSum []float64
	covered := map[int]bool{}
	for w := 0; w < 200 && !dec.Decodable(); w++ {
		for _, msg := range encodeWorker(plan, w, gs) {
			if !covered[msg.Tag] {
				covered[msg.Tag] = true
				if rawSum == nil {
					rawSum = vecmath.Clone(msg.Vec)
				} else {
					vecmath.AddInto(rawSum, msg.Vec)
				}
			}
			dec.Offer(msg)
		}
	}
	got, err := Decode(dec, gradDim)
	if err != nil {
		t.Fatal(err)
	}
	scale := 4.0 / float64(len(covered))
	want := vecmath.Clone(rawSum)
	vecmath.Scale(scale, want)
	if d := vecmath.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("approx scaling off by %v", d)
	}
}

func TestBCCApproxEstimatorApproximatelyUnbiased(t *testing.T) {
	// Averaged over placements and arrival orders, the scaled partial sum
	// should approach the full gradient sum.
	rng := rngutil.New(713)
	m := 20
	gs, want := makeGradients(m, rng)
	scheme := BCCApprox{Phi: 0.6}
	mean := make([]float64, gradDim)
	const trials = 4000
	for i := 0; i < trials; i++ {
		plan, err := scheme.Plan(m, 100, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := driveDecoder(t, plan, gs, rng.Perm(100))
		vecmath.AddInto(mean, got)
	}
	vecmath.Scale(1.0/trials, mean)
	// Tolerance: the estimator is only exchangeable-approximately unbiased;
	// allow 10% of the gradient scale.
	if d := vecmath.MaxAbsDiff(mean, want); d > 0.1*(1+vecmath.NormInf(want)) {
		t.Fatalf("estimator bias %v too large", d)
	}
}

func TestBCCApproxRejectsBadPhi(t *testing.T) {
	rng := rngutil.New(714)
	if _, err := (BCCApprox{Phi: 1.5}).Plan(10, 20, 2, rng); err == nil {
		t.Fatal("phi > 1 accepted")
	}
	if _, err := (BCCApprox{Phi: -0.2}).Plan(10, 20, 2, rng); err == nil {
		t.Fatal("phi < 0 accepted")
	}
}
