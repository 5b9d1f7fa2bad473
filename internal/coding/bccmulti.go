package coding

import (
	"fmt"
	"sort"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
)

// BCCMulti is a design-space ablation of BCC: instead of ONE batch of r
// examples, each worker independently picks K distinct batches of r/K
// examples (same computational load r) and ships one sum per batch (K unit
// messages). Collection at the master becomes the group-drawing coupon
// collector over ceil(m/(r/K)) finer batches.
//
// The analysis shows why the paper settles on K = 1: with K batches the
// expected worker threshold is ~ (m/r)(log(m/r) + log K) — marginally WORSE
// than BCC's (m/r)(log(m/r) + gamma) — while the communication load grows by
// a factor of K. The only benefit is that a duplicated batch wastes 1/K of a
// worker's upload instead of all of it. The `multibatch` experiment
// quantifies this tradeoff.
type BCCMulti struct {
	// K is the number of batches per worker (default 2).
	K int
	// MaxResample bounds feasibility retries, as in BCC.
	MaxResample int
}

func init() { Register(BCCMulti{}) }

// Name implements Scheme.
func (BCCMulti) Name() string { return "bccmulti" }

// Plan implements Scheme.
func (s BCCMulti) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("bccmulti", m, n, r); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/bccmulti: nil rng (placement is randomized)")
	}
	k := s.K
	if k <= 0 {
		k = 2
	}
	if r < k {
		return nil, fmt.Errorf("coding/bccmulti: load r=%d cannot be split into K=%d batches", r, k)
	}
	batchSize := r / k
	nBatches := (m + batchSize - 1) / batchSize
	if k > nBatches {
		return nil, fmt.Errorf("coding/bccmulti: K=%d exceeds the %d available batches", k, nBatches)
	}
	batches := make([][]int, nBatches)
	for bi := 0; bi < nBatches; bi++ {
		lo, hi := bi*batchSize, (bi+1)*batchSize
		if hi > m {
			hi = m
		}
		ids := make([]int, hi-lo)
		for j := range ids {
			ids[j] = lo + j
		}
		batches[bi] = ids
	}
	maxTries := s.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	for try := 0; try < maxTries; try++ {
		choice := make([][]int, n)
		covered := make([]bool, nBatches)
		nCovered := 0
		for w := 0; w < n; w++ {
			picks := rng.Sample(nBatches, k)
			sort.Ints(picks)
			choice[w] = picks
			for _, b := range picks {
				if !covered[b] {
					covered[b] = true
					nCovered++
				}
			}
		}
		if nCovered != nBatches {
			continue
		}
		assign := make([][]int, n)
		groups := make([][]group, n)
		for w := 0; w < n; w++ {
			var ids []int
			for _, b := range choice[w] {
				lo := len(ids)
				ids = append(ids, batches[b]...)
				groups[w] = append(groups[w], group{tag: b, lo: lo, hi: len(ids)})
			}
			assign[w] = ids
		}
		p := newCoveragePlan("bccmulti", m, n, r, assign, groups, nBatches)
		// The group-drawing collector: each worker reveals K distinct
		// coupons of the nBatches types.
		p.expected = func() float64 { return capAt(coupon.BatchExpectedDraws(nBatches, k), n) }
		p.comm = float64(k)
		return p, nil
	}
	return nil, fmt.Errorf("coding/bccmulti: no feasible placement after %d tries (m=%d n=%d r=%d K=%d)",
		maxTries, m, n, r, k)
}

var _ Scheme = BCCMulti{}
