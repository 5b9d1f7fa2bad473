package coding

import "bcc/internal/rngutil"

// Uncoded is the paper's baseline: the m examples are partitioned disjointly
// across the n workers (no redundancy), each worker ships the sum of its
// partial gradients, and the master must wait for every worker that holds
// data. Its recovery threshold is therefore n and it provides no straggler
// protection, but it attains the minimum possible communication load. It is
// Partitioned with balanced loads.
type Uncoded struct{}

func init() { Register(Uncoded{}) }

// Name implements Scheme.
func (Uncoded) Name() string { return "uncoded" }

// Plan implements Scheme. The computational load of the uncoded scheme is
// structurally ceil(m/n); the r argument is validated against it so callers
// cannot silently assume redundancy that does not exist.
func (Uncoded) Plan(m, n, r int, _ *rngutil.RNG) (Plan, error) {
	need := (m + n - 1) / n
	if r < need {
		r = need
	}
	if err := validate("uncoded", m, n, r); err != nil {
		return nil, err
	}
	// Balanced contiguous partition; with n > m some workers hold nothing.
	loads := make([]int, n)
	for w := range loads {
		loads[w] = m / n
		if w < m%n {
			loads[w]++
		}
	}
	return partitionedPlan("uncoded", m, n, need, loads), nil
}

var _ Scheme = Uncoded{}
