package coding

import (
	"fmt"
	"math"

	"bcc/internal/rngutil"
)

// Fractional is the Fractional Repetition gradient-coding scheme of Tandon
// et al., referenced in footnote 2 of the paper: although designed for the
// same worst case as CyclicRep (tolerate s = r - 1 stragglers), it can
// finish EARLY when the responding workers happen to cover every block —
// making it an interesting middle ground between CR and BCC.
//
// Construction: requires m == n and r | n. The n workers form r groups; the
// n examples form n/r blocks of r consecutive examples. Within each group,
// worker j holds block j, so every block is replicated r times (once per
// group). Workers ship their block's gradient SUM, and the master decodes
// by summation once every block is covered — coverage decoding exactly like
// BCC, but with a deterministic, perfectly balanced placement.
//
// Any n - s workers necessarily cover all blocks (each block has r = s + 1
// replicas), so the worst-case threshold matches CR's m - r + 1 while the
// average threshold under a random response order is substantially lower.
type Fractional struct{}

func init() { Register(Fractional{}) }

// Name implements Scheme.
func (Fractional) Name() string { return "fractional" }

// Plan implements Scheme.
func (Fractional) Plan(m, n, r int, _ *rngutil.RNG) (Plan, error) {
	if err := validate("fractional", m, n, r); err != nil {
		return nil, err
	}
	if m != n {
		return nil, fmt.Errorf("coding/fractional: requires m == n; got m=%d n=%d", m, n)
	}
	if n%r != 0 {
		return nil, fmt.Errorf("coding/fractional: requires r | n; got n=%d r=%d", n, r)
	}
	nBlocks := n / r
	// Block b holds examples [b*r, (b+1)*r). Worker w in group g = w / nBlocks
	// holds block w % nBlocks.
	blocks := make([][]int, nBlocks)
	for bi := 0; bi < nBlocks; bi++ {
		ids := make([]int, r)
		for k := range ids {
			ids[k] = bi*r + k
		}
		blocks[bi] = ids
	}
	assign := make([][]int, n)
	blockOf := make([]int, n)
	for w := 0; w < n; w++ {
		bi := w % nBlocks
		blockOf[w] = bi
		assign[w] = blocks[bi]
	}
	p := newCoveragePlan("fractional", m, n, r, assign, wholeGroups(assign, blockOf), nBlocks)
	// n - (r-1) workers always cover every block: each has r replicas.
	p.worst = n - (r - 1)
	// The without-replacement coverage expectation is an O(n^2 * nBlocks)
	// inclusion-exclusion sum; solve it once here instead of on every
	// ExpectedThreshold call (the experiment harness queries it per trial).
	expected := fractionalExpected(n, r, nBlocks)
	p.expected = func() float64 { return expected }
	return p, nil
}

// fractionalExpected is the expected number of draws, without replacement,
// from n workers (r replicas of each of nb blocks) until every block
// appears: E[K] = sum_t P(K > t), with P(K > t) from inclusion-exclusion
// over blocks entirely absent from the first t draws.
func fractionalExpected(n, r, nb int) float64 {
	// P(K > t) = P(some block has all r replicas outside the first t draws)
	//          = sum_{j>=1} (-1)^{j+1} C(nb, j) C(n - j*r, t) / C(n, t).
	// Terms use log-space ratios.
	var e float64
	for t := 0; t < n; t++ {
		e += fractionalSurvival(n, r, nb, t)
	}
	return e
}

// fractionalSurvival returns P(K > t) as above; exported indirectly for
// tests via ExpectedThreshold cross-check against Monte-Carlo.
func fractionalSurvival(n, r, nb, t int) float64 {
	if t < nb {
		return 1
	}
	var p float64
	sign := 1.0
	logCnbj := 0.0
	for j := 1; j <= nb; j++ {
		logCnbj += math.Log(float64(nb-j+1)) - math.Log(float64(j))
		if n-j*r < t {
			break // C(n-j*r, t) = 0, and so are all later terms
		}
		// log [ C(n-j*r, t) / C(n, t) ] = sum_{i=0..t-1} log((n-j*r-i)/(n-i))
		var logRatio float64
		for i := 0; i < t; i++ {
			logRatio += math.Log(float64(n-j*r-i)) - math.Log(float64(n-i))
		}
		term := math.Exp(logCnbj + logRatio)
		p += sign * term
		sign = -sign
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

var _ Scheme = Fractional{}
