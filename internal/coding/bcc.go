package coding

import (
	"fmt"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
)

// BCC is the paper's Batched Coupon's Collector scheme (§III).
//
// Data distribution: the m examples are partitioned into N = ceil(m/r)
// batches of (at most) r examples; every worker independently picks one
// batch uniformly at random. Communication: each worker ships the SUM of its
// batch's partial gradients (eq. 12) — a single unit-size message. The
// master keeps the first message per batch and decodes by summation once
// every batch is covered, emulating a coupon collector over N types; the
// expected recovery threshold is N*H_N (Theorem 1).
//
// The placement is decentralized (workers choose independently), so with a
// finite cluster there is a small probability some batch is chosen by
// nobody. MaxResample controls how many independent placements Plan tries
// before giving up; the paper's regime ("sufficiently large n") makes one
// draw feasible with overwhelming probability.
type BCC struct {
	// MaxResample bounds the feasibility retries (default 1000).
	MaxResample int
	// Weights, if non-nil, skews the batch-selection distribution (length
	// must equal ceil(m/r); weights must be positive but need not be
	// normalized). The paper assumes uniform selection; this knob exists for
	// the `skew` robustness study — non-uniform selection inflates the
	// recovery threshold per the weighted coupon collector.
	Weights []float64
}

func init() { Register(BCC{}) }

// Name implements Scheme.
func (BCC) Name() string { return "bcc" }

// Plan implements Scheme.
func (b BCC) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if err := validate("bcc", m, n, r); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/bcc: nil rng (placement is randomized)")
	}
	nBatches := (m + r - 1) / r
	if nBatches > n {
		return nil, fmt.Errorf("coding/bcc: %d batches cannot be covered by %d workers; need m/r <= n", nBatches, n)
	}
	// Batch b holds examples [b*r, min((b+1)*r, m)); the last batch may be
	// short (the paper zero-pads it, which is equivalent for gradients).
	batches := make([][]int, nBatches)
	for bi := 0; bi < nBatches; bi++ {
		lo, hi := bi*r, (bi+1)*r
		if hi > m {
			hi = m
		}
		ids := make([]int, hi-lo)
		for k := range ids {
			ids[k] = lo + k
		}
		batches[bi] = ids
	}
	maxTries := b.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	var cum []float64
	if b.Weights != nil {
		if len(b.Weights) != nBatches {
			return nil, fmt.Errorf("coding/bcc: %d weights for %d batches", len(b.Weights), nBatches)
		}
		cum = make([]float64, nBatches)
		var total float64
		for i, w := range b.Weights {
			if w <= 0 {
				return nil, fmt.Errorf("coding/bcc: non-positive weight %v at batch %d", w, i)
			}
			total += w
			cum[i] = total
		}
	}
	pick := func() int {
		if cum == nil {
			return rng.Intn(nBatches)
		}
		x := rng.Float64() * cum[nBatches-1]
		lo, hi := 0, nBatches-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	choice := make([]int, n)
	for try := 0; try < maxTries; try++ {
		covered := make([]bool, nBatches)
		nCovered := 0
		for w := 0; w < n; w++ {
			c := pick()
			choice[w] = c
			if !covered[c] {
				covered[c] = true
				nCovered++
			}
		}
		if nCovered == nBatches {
			assign := make([][]int, n)
			for w := 0; w < n; w++ {
				assign[w] = batches[choice[w]]
			}
			p := newCoveragePlan("bcc", m, n, r, assign, wholeGroups(assign, choice), nBatches)
			// K_BCC = N * H_N (Theorem 1).
			p.expected = func() float64 { return capAt(coupon.ExpectedDraws(nBatches), n) }
			return p, nil
		}
	}
	return nil, fmt.Errorf("coding/bcc: no feasible placement after %d tries (m=%d n=%d r=%d; increase n or r)",
		maxTries, m, n, r)
}

var _ Scheme = BCC{}
