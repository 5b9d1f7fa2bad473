package coding

import (
	"fmt"
	"math"

	"bcc/internal/rngutil"
)

// GeneralizedBCC is the heterogeneous-cluster scheme of the paper's §IV:
// worker i independently samples Loads[i] distinct examples uniformly at
// random (no batching — Theorem 2's construction G0) and, following the
// section's uncoded communication model, ships each partial gradient
// individually. The master decodes by coverage over the m examples.
//
// The per-worker loads typically come from the hetero package's P2
// allocator. Because loads are placement-specific the scheme is NOT in the
// global registry; construct it explicitly:
//
//	plan, err := coding.GeneralizedBCC{Loads: alloc.Loads}.Plan(m, n, maxLoad, rng)
type GeneralizedBCC struct {
	// Loads[i] is worker i's sample count (values are clamped to m).
	Loads []int
	// MaxResample bounds feasibility retries (default 1000): the union of
	// the samples must cover every example or no iteration can ever decode.
	MaxResample int
}

// Name implements Scheme.
func (GeneralizedBCC) Name() string { return "genbcc" }

// Plan implements Scheme. r must be >= max(Loads); it exists only to satisfy
// the uniform interface and is validated, not used for placement. Values of
// r above m are clamped to m, mirroring the per-load clamping.
func (s GeneralizedBCC) Plan(m, n, r int, rng *rngutil.RNG) (Plan, error) {
	if r > m {
		r = m
	}
	if err := validate("genbcc", m, n, r); err != nil {
		return nil, err
	}
	if len(s.Loads) != n {
		return nil, fmt.Errorf("coding/genbcc: %d loads for %d workers", len(s.Loads), n)
	}
	if rng == nil {
		return nil, fmt.Errorf("coding/genbcc: nil rng (placement is randomized)")
	}
	loads := make([]int, n)
	maxLoad := 0
	total := 0
	for i, l := range s.Loads {
		if l < 0 {
			return nil, fmt.Errorf("coding/genbcc: negative load %d for worker %d", l, i)
		}
		if l > m {
			l = m
		}
		loads[i] = l
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad > r {
		return nil, fmt.Errorf("coding/genbcc: max load %d exceeds declared r=%d", maxLoad, r)
	}
	if total < m {
		return nil, fmt.Errorf("coding/genbcc: total load %d cannot cover %d examples", total, m)
	}
	maxTries := s.MaxResample
	if maxTries <= 0 {
		maxTries = 1000
	}
	for try := 0; try < maxTries; try++ {
		assign := make([][]int, n)
		for w := 0; w < n; w++ {
			assign[w] = rng.Sample(m, loads[w])
		}
		if coverageFeasible(m, assign) {
			p := newCoveragePlan("genbcc", m, n, r, assign, exampleGroups(assign), m)
			// Heterogeneous loads have no clean closed form: Monte-Carlo only.
			p.expected = func() float64 { return math.NaN() }
			// Every partial gradient ships separately: the average load.
			p.comm = float64(total) / float64(n)
			return p, nil
		}
	}
	return nil, fmt.Errorf("coding/genbcc: no feasible placement after %d tries (total load %d over m=%d)",
		maxTries, total, m)
}

var _ Scheme = GeneralizedBCC{}

// ---------------------------------------------------------------------------
// Partitioned: the LB baseline's placement
// ---------------------------------------------------------------------------

// Partitioned is the load-balancing baseline of §IV-C as a coding scheme:
// the m examples are split into DISJOINT contiguous blocks sized by Loads
// (typically hetero.LoadBalancedLoads), each worker ships the sum of its
// block, and the master must wait for every loaded worker. It generalizes
// Uncoded to non-uniform loads. Not registered; construct explicitly.
type Partitioned struct {
	// Loads[i] is worker i's block size; the loads must sum to exactly m.
	Loads []int
}

// Name implements Scheme.
func (Partitioned) Name() string { return "partitioned" }

// Plan implements Scheme; r must be >= max(Loads).
func (s Partitioned) Plan(m, n, r int, _ *rngutil.RNG) (Plan, error) {
	if err := validate("partitioned", m, n, r); err != nil {
		return nil, err
	}
	if len(s.Loads) != n {
		return nil, fmt.Errorf("coding/partitioned: %d loads for %d workers", len(s.Loads), n)
	}
	total := 0
	maxLoad := 0
	for i, l := range s.Loads {
		if l < 0 {
			return nil, fmt.Errorf("coding/partitioned: negative load %d for worker %d", l, i)
		}
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total != m {
		return nil, fmt.Errorf("coding/partitioned: loads sum to %d, want m=%d", total, m)
	}
	if maxLoad > r {
		return nil, fmt.Errorf("coding/partitioned: max load %d exceeds declared r=%d", maxLoad, r)
	}
	return partitionedPlan("partitioned", m, n, r, s.Loads), nil
}

// partitionedPlan places contiguous blocks of loads[w] examples on worker w
// in order; each data holder ships its block sum and the master needs every
// holder.
func partitionedPlan(scheme string, m, n, r int, loads []int) *coveragePlan {
	assign := make([][]int, n)
	workers := make([]int, n)
	next := 0
	for w := 0; w < n; w++ {
		ids := make([]int, loads[w])
		for k := range ids {
			ids[k] = next
			next++
		}
		assign[w] = ids
		workers[w] = w
	}
	p := newCoveragePlan(scheme, m, n, r, assign, wholeGroups(assign, workers), n)
	// Zero redundancy: every data holder is needed, whatever the order.
	p.worst = p.full
	p.minResp = p.full
	holders := float64(p.full)
	p.expected = func() float64 { return holders }
	return p
}

var _ Scheme = Partitioned{}
