package coding

import (
	"fmt"
	"math"

	"bcc/internal/coupon"
	"bcc/internal/rngutil"
)

// BCCApprox is an extension of BCC to APPROXIMATE gradient recovery, in the
// spirit of approximate gradient coding: the master stops once a fraction
// Phi of the batches is covered and inflates the partial sum by
// nBatches/covered, an (approximately) unbiased stochastic gradient. The
// training loop degrades gracefully into distributed SGD: thresholds drop
// well below BCC's exact-coverage N*H_N — the collector's last few coupons
// are the expensive ones — at the price of gradient noise.
//
// Placement and encoding are identical to BCC; only the decodability rule
// and the decode-time rescaling differ. Phi = 1 recovers exact BCC.
type BCCApprox struct {
	// Phi is the coverage fraction in (0, 1]; default 0.8.
	Phi float64
	// MaxResample bounds feasibility retries, as in BCC. Feasibility still
	// requires FULL coverage to be possible so training can fall back to an
	// exact iteration if stragglers vanish.
	MaxResample int
}

func init() { Register(BCCApprox{}) }

// Name implements Scheme.
func (BCCApprox) Name() string { return "bccapprox" }

// Plan implements Scheme.
func (s BCCApprox) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	phi := s.Phi
	if phi == 0 {
		phi = 0.8
	}
	if phi <= 0 || phi > 1 {
		return nil, fmt.Errorf("coding/bccapprox: Phi=%v outside (0,1]", phi)
	}
	base, err := BCC{MaxResample: s.MaxResample}.Plan(m, n, r, rng)
	if err != nil {
		return nil, fmt.Errorf("coding/bccapprox: %w", err)
	}
	p := base.(*coveragePlan)
	nBatches := p.slots
	need := int(math.Ceil(phi * float64(nBatches)))
	if need < 1 {
		need = 1
	}
	p.scheme = "bccapprox"
	p.need = need
	// Each worker holds one batch, so fewer than need workers never cover
	// need batches.
	p.minResp = need
	// The classic collector's expected draws to see need of nBatches types.
	p.expected = func() float64 { return capAt(coupon.PartialExpectedDraws(nBatches, need), n) }
	return p, nil
}

var _ Scheme = BCCApprox{}
