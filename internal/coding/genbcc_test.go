package coding

import (
	"math"
	"testing"

	"bcc/internal/rngutil"
)

func TestGenBCCDecodesExactly(t *testing.T) {
	rng := rngutil.New(800)
	m, n := 20, 10
	loads := []int{8, 8, 8, 8, 8, 4, 4, 4, 4, 4}
	plan, err := GeneralizedBCC{Loads: loads}.Plan(m, n, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs, want := makeGradients(m, rng)
	got, _ := driveDecoder(t, plan, gs, rng.Perm(n))
	checkExact(t, "genbcc", got, want)
}

func TestGenBCCRespectsLoads(t *testing.T) {
	rng := rngutil.New(801)
	loads := []int{5, 3, 0, 7, 5}
	plan, err := GeneralizedBCC{Loads: loads}.Plan(12, 5, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	for w, a := range plan.Assignments() {
		if len(a) != loads[w] {
			t.Fatalf("worker %d assigned %d, want %d", w, len(a), loads[w])
		}
		seen := map[int]bool{}
		for _, u := range a {
			if seen[u] {
				t.Fatalf("worker %d sampled example %d twice", w, u)
			}
			seen[u] = true
		}
	}
}

func TestGenBCCLoadsClampedToM(t *testing.T) {
	rng := rngutil.New(802)
	plan, err := GeneralizedBCC{Loads: []int{100, 100}}.Plan(6, 2, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	for w, a := range plan.Assignments() {
		if len(a) != 6 {
			t.Fatalf("worker %d assigned %d, want clamp to m=6", w, len(a))
		}
	}
	if !math.IsNaN(plan.ExpectedThreshold()) {
		t.Fatal("heterogeneous threshold should be NaN (MC only)")
	}
}

func TestGenBCCValidation(t *testing.T) {
	rng := rngutil.New(803)
	if _, err := (GeneralizedBCC{Loads: []int{1}}).Plan(5, 2, 3, rng); err == nil {
		t.Fatal("wrong load count accepted")
	}
	if _, err := (GeneralizedBCC{Loads: []int{-1, 3}}).Plan(5, 2, 3, rng); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := (GeneralizedBCC{Loads: []int{1, 1}}).Plan(5, 2, 3, rng); err == nil {
		t.Fatal("insufficient total load accepted")
	}
	if _, err := (GeneralizedBCC{Loads: []int{5, 5}}).Plan(5, 2, 3, rng); err == nil {
		t.Fatal("max load above r accepted")
	}
	if _, err := (GeneralizedBCC{Loads: []int{5, 5}}).Plan(5, 2, 5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestGenBCCUncodedCommunication(t *testing.T) {
	rng := rngutil.New(804)
	loads := []int{3, 3, 3, 3}
	plan, err := GeneralizedBCC{Loads: loads}.Plan(6, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs, _ := makeGradients(6, rng)
	msgs := encodeWorker(plan, 0, gs)
	if len(msgs) != 3 {
		t.Fatalf("worker sent %d messages, want one per sampled example", len(msgs))
	}
	if plan.CommLoadPerWorker() != 3 {
		t.Fatalf("comm load %v", plan.CommLoadPerWorker())
	}
}

func TestPartitionedDecodesExactly(t *testing.T) {
	rng := rngutil.New(810)
	loads := []int{4, 1, 0, 5, 2}
	plan, err := Partitioned{Loads: loads}.Plan(12, 5, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs, want := makeGradients(12, rng)
	dec := plan.NewDecoder()
	for _, w := range rng.Perm(5) {
		for _, msg := range encodeWorker(plan, w, gs) {
			dec.Offer(msg)
		}
	}
	got, err := Decode(dec, gradDim)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "partitioned", got, want)
	if dec.WorkersHeard() != 4 { // worker 2 holds nothing and sends nothing
		t.Fatalf("heard %d, want 4 holders", dec.WorkersHeard())
	}
}

func TestPartitionedDisjointCoverage(t *testing.T) {
	rng := rngutil.New(811)
	loads := []int{3, 3, 3, 3}
	plan, err := Partitioned{Loads: loads}.Plan(12, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 12)
	for _, a := range plan.Assignments() {
		for _, u := range a {
			if seen[u] {
				t.Fatalf("example %d assigned twice", u)
			}
			seen[u] = true
		}
	}
	for u, s := range seen {
		if !s {
			t.Fatalf("example %d unassigned", u)
		}
	}
}

func TestPartitionedValidation(t *testing.T) {
	rng := rngutil.New(812)
	if _, err := (Partitioned{Loads: []int{3, 3}}).Plan(5, 2, 3, rng); err == nil {
		t.Fatal("loads not summing to m accepted")
	}
	if _, err := (Partitioned{Loads: []int{5, 0}}).Plan(5, 2, 3, rng); err == nil {
		t.Fatal("max load above r accepted")
	}
	if _, err := (Partitioned{Loads: []int{3}}).Plan(5, 2, 3, rng); err == nil {
		t.Fatal("wrong load count accepted")
	}
}

func TestGenBCCvsPartitionedThresholds(t *testing.T) {
	// The §IV story in decoder terms: with redundancy (total load > m),
	// genbcc usually finishes before hearing every worker; partitioned
	// always needs all holders.
	rng := rngutil.New(813)
	m, n := 30, 12
	gloads := make([]int, n)
	for i := range gloads {
		gloads[i] = 10 // total 120 >> m
	}
	gplan, err := GeneralizedBCC{Loads: gloads}.Plan(m, n, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	ploads := make([]int, n)
	for i := range ploads {
		ploads[i] = m / n
	}
	ploads[0] += m % n
	pplan, err := Partitioned{Loads: ploads}.Plan(m, n, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs, _ := makeGradients(m, rng)
	var gsum, psum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		order := rng.Perm(n)
		_, gh := driveDecoder(t, gplan, gs, order)
		_, ph := driveDecoder(t, pplan, gs, order)
		gsum += float64(gh)
		psum += float64(ph)
	}
	if gsum/trials >= psum/trials {
		t.Fatalf("genbcc avg threshold %v not below partitioned %v", gsum/trials, psum/trials)
	}
}
