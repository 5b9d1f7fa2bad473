package coding

import (
	"math"
	"testing"

	"bcc/internal/rngutil"
	"bcc/internal/vecmath"
)

// encodeAll builds one iteration's messages for every worker of the plan at
// the given payload dimension.
func encodeAll(t *testing.T, plan Plan, dim int, seed uint64) [][]Message {
	t.Helper()
	m, n, _ := plan.Params()
	rng := rngutil.New(seed)
	gs := make([][]float64, m)
	for u := range gs {
		g := make([]float64, dim)
		for i := range g {
			g[i] = rng.Normal()
		}
		gs[u] = g
	}
	assign := plan.Assignments()
	msgs := make([][]Message, n)
	for w := 0; w < n; w++ {
		parts := make([][]float64, len(assign[w]))
		for k, u := range assign[w] {
			parts[k] = gs[u]
		}
		msgs[w] = Encode(plan, w, parts)
	}
	return msgs
}

// slicePlanFor builds a plan for the scheme at the test topology. The
// registry covers most schemes; genbcc and partitioned are load-specific and
// unregistered, so they are constructed explicitly with uneven (genbcc) and
// unit (partitioned: loads must sum to exactly m) load vectors.
func slicePlanFor(t *testing.T, scheme string, m, n, r int) Plan {
	t.Helper()
	var (
		plan Plan
		err  error
	)
	switch scheme {
	case "genbcc":
		loads := make([]int, n)
		maxLoad := 0
		for i := range loads {
			loads[i] = 1 + i%3
			if loads[i] > maxLoad {
				maxLoad = loads[i]
			}
		}
		plan, err = GeneralizedBCC{Loads: loads}.Plan(m, n, maxLoad, rngutil.New(3))
	case "partitioned":
		loads := make([]int, n)
		for i := range loads {
			loads[i] = m / n
		}
		for i := 0; i < m%n; i++ {
			loads[i]++
		}
		plan, err = Partitioned{Loads: loads}.Plan(m, n, (m+n-1)/n, rngutil.New(3))
	default:
		var s Scheme
		s, err = Lookup(scheme)
		if err != nil {
			t.Fatal(err)
		}
		plan, err = s.Plan(m, n, r, rngutil.New(3))
	}
	if err != nil {
		t.Skipf("%s rejects m=%d n=%d r=%d: %v", scheme, m, n, r, err)
	}
	return plan
}

// sliceDecoderFor builds a decodable SliceDecoder for the scheme plus the
// serial full-decode reference, skipping schemes that reject the topology.
func sliceDecoderFor(t *testing.T, scheme string, dim int) (SliceDecoder, []float64) {
	t.Helper()
	const m, n, r = 24, 24, 6
	plan := slicePlanFor(t, scheme, m, n, r)
	msgs := encodeAll(t, plan, dim, 4)
	dec := plan.NewDecoder()
	for _, w := range rngutil.New(5).Perm(n) {
		for _, msg := range msgs[w] {
			dec.Offer(msg)
		}
		if dec.Decodable() {
			break
		}
	}
	if !dec.Decodable() {
		t.Fatalf("%s: not decodable after all workers", scheme)
	}
	sd, ok := dec.(SliceDecoder)
	if !ok {
		t.Fatalf("%s decoder does not implement SliceDecoder", scheme)
	}
	ref := make([]float64, dim)
	if err := sd.DecodeInto(ref); err != nil {
		t.Fatal(err)
	}
	return sd, ref
}

// TestDecodeSliceIntoPartitions is the slice-decode contract test: for
// every SliceDecoder scheme — all registered schemes plus the unregistered
// load-specific ones — assembling the output from an ARBITRARY partition of
// [0, p) — uniform chunks of every size, including wire-chunk shapes that
// straddle the dimension, plus random uneven cuts — reproduces the serial
// DecodeInto bit-for-bit, and slices outside the partition are left
// untouched.
func TestDecodeSliceIntoPartitions(t *testing.T) {
	const dim = 257 // prime: no chunk size divides it evenly
	schemes := append(Names(), "genbcc", "partitioned")
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			sd, ref := sliceDecoderFor(t, scheme, dim)

			// Uniform chunkings, including 1 (element streaming), sizes that
			// straddle dim, and one giant chunk.
			for _, chunk := range []int{1, 7, 64, 256, 257, 512} {
				got := make([]float64, dim)
				for i := range got {
					got[i] = math.NaN() // every element must be overwritten
				}
				for lo := 0; lo < dim; lo += chunk {
					hi := lo + chunk
					if hi > dim {
						hi = dim
					}
					if err := sd.DecodeSliceInto(got, lo, hi); err != nil {
						t.Fatalf("chunk %d slice [%d,%d): %v", chunk, lo, hi, err)
					}
				}
				if d := vecmath.MaxAbsDiff(ref, got); d != 0 {
					t.Fatalf("chunk %d diverged from DecodeInto by %v", chunk, d)
				}
			}

			// Random uneven partitions, shuffled application order: element
			// independence means order cannot matter.
			rng := rngutil.New(11)
			for trial := 0; trial < 20; trial++ {
				var bounds []int
				for lo := 0; lo < dim; {
					hi := lo + 1 + rng.Intn(90)
					if hi > dim {
						hi = dim
					}
					bounds = append(bounds, lo, hi)
					lo = hi
				}
				order := rng.Perm(len(bounds) / 2)
				got := make([]float64, dim)
				for _, s := range order {
					lo, hi := bounds[2*s], bounds[2*s+1]
					if err := sd.DecodeSliceInto(got, lo, hi); err != nil {
						t.Fatalf("trial %d slice [%d,%d): %v", trial, lo, hi, err)
					}
				}
				if d := vecmath.MaxAbsDiff(ref, got); d != 0 {
					t.Fatalf("trial %d diverged from DecodeInto by %v", trial, d)
				}
			}

			// A partial decode leaves everything outside [lo, hi) untouched.
			sentinel := make([]float64, dim)
			for i := range sentinel {
				sentinel[i] = -1
			}
			if err := sd.DecodeSliceInto(sentinel, 10, 20); err != nil {
				t.Fatal(err)
			}
			for i := range sentinel {
				in := i >= 10 && i < 20
				if in && sentinel[i] != ref[i] {
					t.Fatalf("element %d inside slice = %v, want %v", i, sentinel[i], ref[i])
				}
				if !in && sentinel[i] != -1 {
					t.Fatalf("element %d outside slice was touched: %v", i, sentinel[i])
				}
			}
		})
	}
}

// TestDecodeSliceIntoBounds pins the error contract for malformed ranges.
func TestDecodeSliceIntoBounds(t *testing.T) {
	sd, _ := sliceDecoderFor(t, "cyclicrep", 32)
	dst := make([]float64, 32)
	for _, tc := range []struct{ lo, hi int }{{-1, 4}, {4, 33}, {8, 4}} {
		if err := sd.DecodeSliceInto(dst, tc.lo, tc.hi); err == nil {
			t.Fatalf("slice [%d,%d) accepted", tc.lo, tc.hi)
		}
	}
	if err := sd.DecodeSliceInto(dst, 4, 4); err != nil {
		t.Fatalf("empty slice [4,4) rejected: %v", err)
	}
}
