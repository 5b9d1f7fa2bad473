package coding

import (
	"fmt"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
)

// Randomized is the "simple randomized scheme" of the paper's introduction
// (eqs. 5-6): every worker independently selects r of the m examples
// uniformly at random (without replacement) and ships each computed partial
// gradient INDIVIDUALLY to the master. The master keeps the first copy of
// each example's gradient and finishes once all m are covered.
//
// Like BCC it reaches the minimum recovery threshold up to a log factor
// (K ~ (m/r) log m), but because every message group carries r units its
// communication load blows up to ~ m log m — the deficiency BCC's batching
// step repairs.
type Randomized struct {
	// MaxResample bounds feasibility retries, as in BCC.
	MaxResample int
}

func init() { Register(Randomized{}) }

// Name implements Scheme.
func (Randomized) Name() string { return "randomized" }

// Plan implements Scheme.
func (s Randomized) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("randomized", m, n, r); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/randomized: nil rng (placement is randomized)")
	}
	maxTries := s.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	for try := 0; try < maxTries; try++ {
		assign := make([][]int, n)
		for w := 0; w < n; w++ {
			assign[w] = rng.Sample(m, r)
		}
		if coverageFeasible(m, assign) {
			p := newCoveragePlan("randomized", m, n, r, assign, exampleGroups(assign), m)
			// The batch-drawing coupon collector (eq. 5).
			p.expected = func() float64 { return capAt(coupon.BatchExpectedDraws(m, r), n) }
			p.comm = float64(r)
			return p, nil
		}
	}
	return nil, fmt.Errorf("coding/randomized: no feasible placement after %d tries (m=%d n=%d r=%d)",
		maxTries, m, n, r)
}

var _ Scheme = Randomized{}
