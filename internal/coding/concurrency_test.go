package coding

import (
	"sync"
	"testing"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// These tests pin the Plan contract the pooled data plane relies on: one
// Plan serves many decoders concurrently (the solve caches are the only
// mutable plan state and are synchronized), and the decode-coefficient
// solves of the linear-coded schemes happen once per responder sequence, not
// once per iteration.

// TestPlanSafeForConcurrentDecoders runs many goroutines against one shared
// plan, each decoding several iterations with its own (Reset-reused) decoder
// under different arrival orders, and checks every decode is exact. Run
// under -race (the CI race job does) this asserts the plan-level caches are
// properly synchronized.
func TestPlanSafeForConcurrentDecoders(t *testing.T) {
	const (
		m, n       = 12, 12
		r          = 3
		goroutines = 8
		iterations = 5
	)
	rng := rngutil.New(99)
	gs, want := makeGradients(m, rng)
	for _, name := range []string{"bcc", "cyclicrep", "fractional", "uncoded"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := s.Plan(m, n, r, rngutil.New(100))
			if err != nil {
				t.Skipf("%s rejects m=%d n=%d r=%d: %v", name, m, n, r, err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					orderRNG := rngutil.New(seed)
					dec := plan.NewDecoder()
					dst := make([]float64, gradDim)
					for it := 0; it < iterations; it++ {
						dec.Reset()
						for _, w := range orderRNG.Perm(n) {
							for _, msg := range encodeWorker(plan, w, gs) {
								dec.Offer(msg)
							}
							if dec.Decodable() {
								break
							}
						}
						if err := dec.DecodeInto(dst); err != nil {
							errs <- err
							return
						}
						if d := vecmath.MaxAbsDiff(dst, want); d > 1e-6*(1+vecmath.NormInf(want)) {
							t.Errorf("goroutine decode off by %v", d)
							return
						}
					}
				}(uint64(200 + g))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestSolveCacheReusedAcrossIterations asserts that a cyclicrep plan
// decoding the same responder SET many times — even in different arrival
// orders — solves its linear system exactly once
// (the seed repo re-solved it every iteration), while a genuinely different
// responder set triggers a fresh solve.
func TestSolveCacheReusedAcrossIterations(t *testing.T) {
	const m, n, r = 10, 10, 3
	rng := rngutil.New(123)
	gs, want := makeGradients(m, rng)

	type solvable interface {
		Plan
		Solves() int
	}
	for _, name := range []string{"cyclicrep"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s, _ := Lookup(name)
			p, err := s.Plan(m, n, r, rngutil.New(7))
			if err != nil {
				t.Fatal(err)
			}
			plan := p.(solvable)
			threshold := plan.WorstCaseThreshold() // 8 of the 10 workers
			dec := plan.NewDecoder()
			dst := make([]float64, gradDim)
			decode := func(order []int) {
				t.Helper()
				dec.Reset()
				for _, w := range order {
					for _, msg := range encodeWorker(plan, w, gs) {
						dec.Offer(msg)
					}
					if dec.Decodable() {
						break
					}
				}
				if err := dec.DecodeInto(dst); err != nil {
					t.Fatal(err)
				}
				if d := vecmath.MaxAbsDiff(dst, want); d > 1e-6*(1+vecmath.NormInf(want)) {
					t.Fatalf("decode off by %v", d)
				}
			}
			// Workers 0..n-1 in index order: the responding set is the first
			// `threshold` indices.
			base := make([]int, n)
			for i := range base {
				base[i] = i
			}
			const iters = 6
			for it := 0; it < iters; it++ {
				decode(base)
			}
			if got := plan.Solves(); got != 1 {
				t.Fatalf("plan solved %d linear systems over %d identical iterations, want 1", got, iters)
			}
			// The SAME responder set arriving in reversed order must hit the
			// cache: the key is the set, coefficients are stored by worker.
			reversed := make([]int, 0, n)
			for i := threshold - 1; i >= 0; i-- {
				reversed = append(reversed, i)
			}
			for i := threshold; i < n; i++ {
				reversed = append(reversed, i)
			}
			decode(reversed)
			if got := plan.Solves(); got != 1 {
				t.Fatalf("same responder set in reversed order re-solved (count %d, want 1)", got)
			}
			// A different responder set is a genuinely different system.
			rotated := make([]int, n)
			for i := range rotated {
				rotated[i] = (i + 1) % n // first `threshold` responders now {1..threshold}
			}
			decode(rotated)
			if got := plan.Solves(); got < 2 {
				t.Fatalf("new responder set did not trigger a solve (count %d)", got)
			}
		})
	}
}

// TestDecoderResetReusable asserts Reset returns every registered scheme's
// decoder to a fresh state: a second iteration on a reused decoder must
// produce the identical sum and threshold as a fresh decoder.
func TestDecoderResetReusable(t *testing.T) {
	const m, n, r = 12, 12, 3
	rng := rngutil.New(321)
	gs, _ := makeGradients(m, rng)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, _ := Lookup(name)
			plan, err := s.Plan(m, n, r, rngutil.New(13))
			if err != nil {
				t.Skipf("%s rejects m=%d n=%d r=%d: %v", name, m, n, r, err)
			}
			order := rngutil.New(17).Perm(n)
			decode := func(dec Decoder) ([]float64, int) {
				for _, w := range order {
					for _, msg := range encodeWorker(plan, w, gs) {
						dec.Offer(msg)
					}
					if dec.Decodable() {
						break
					}
				}
				out, err := Decode(dec, gradDim)
				if err != nil {
					t.Fatal(err)
				}
				return out, dec.WorkersHeard()
			}
			reused := plan.NewDecoder()
			first, firstHeard := decode(reused)
			reused.Reset()
			if reused.WorkersHeard() != 0 || reused.UnitsReceived() != 0 || reused.Decodable() {
				t.Fatal("Reset left decoder state behind")
			}
			second, secondHeard := decode(reused)
			fresh, freshHeard := decode(plan.NewDecoder())
			if d := vecmath.MaxAbsDiff(second, fresh); d != 0 {
				t.Fatalf("reused decoder differs from fresh by %v", d)
			}
			if d := vecmath.MaxAbsDiff(first, second); d != 0 {
				t.Fatalf("second decode differs from first by %v", d)
			}
			if firstHeard != secondHeard || secondHeard != freshHeard {
				t.Fatalf("thresholds drifted: %d, %d, %d", firstHeard, secondHeard, freshHeard)
			}
		})
	}
}
