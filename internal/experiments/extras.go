package experiments

import (
	"context"
	"fmt"
	"math"

	"bcc/internal/coding"
	"bcc/internal/coupon"
	"bcc/internal/rngutil"
)

// Theorem1 validates Theorem 1's achievability on the real machinery: the
// measured average recovery threshold of BCC across an (m, r) grid against
// the analytic ceil(m/r)*H and the m/r lower bound.
func Theorem1(ctx context.Context, opt Options) (*Table, error) {
	m := 100
	n := 400 // n >> m/r so the with-replacement collector analysis applies
	if opt.Quick {
		m, n = 40, 160
	}
	trials := opt.trials(300)
	rng := rngutil.New(opt.seed())
	t := &Table{
		ID:      "theorem1",
		Title:   fmt.Sprintf("Theorem 1 check: measured E[K_BCC] vs ceil(m/r)H (m=%d, n=%d, %d trials)", m, n, trials),
		Columns: []string{"r", "m/r (lower bound)", "ceil(m/r)*H (Theorem 1)", "measured E[K]", "rel err"},
	}
	for _, r := range []int{2, 5, 10, 20, 25} {
		if r > m {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		analytic := coupon.BCCRecoveryThreshold(m, r)
		measured, err := measureBCCThreshold(m, n, r, trials, rng)
		if err != nil {
			return nil, err
		}
		rel := math.Abs(measured-analytic) / analytic
		t.AddRow(r, coupon.LowerBound(m, r), analytic, measured, fmt.Sprintf("%.1f%%", 100*rel))
	}
	t.Notes = append(t.Notes,
		"measured thresholds should track ceil(m/r)H_{ceil(m/r)} (small positive bias possible from feasibility resampling at small n)",
	)
	return t, nil
}

// CommLoad regenerates the communication-load comparison implied by eqs.
// (4), (6) and (8): analytic loads plus the units actually counted by the
// decoders.
func CommLoad(ctx context.Context, opt Options) (*Table, error) {
	m, n := 100, 100
	if opt.Quick {
		m, n = 40, 40
	}
	trials := opt.trials(200)
	rng := rngutil.New(opt.seed())
	t := &Table{
		ID:      "commload",
		Title:   fmt.Sprintf("communication load L vs computational load r (m=n=%d)", m),
		Columns: []string{"r", "BCC analytic", "BCC measured", "randomized analytic", "randomized measured", "CR/MDS (m-r+1)", "uncoded (n)"},
	}
	// Coverage-based placements need n >> m/r for feasibility (the paper's
	// "sufficiently large n"); measure on a 4x larger cluster while keeping
	// the analytic columns at the paper's m.
	nMeas := 4 * m
	for _, r := range []int{2, 5, 10, 20, 25} {
		if r > m {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bccA := math.Min(coupon.BCCRecoveryThreshold(m, r), float64(nMeas))
		rndA := math.Min(coupon.RandomizedCommunicationLoad(m, r), float64(nMeas*r))
		bccM, err := measureUnits("bcc", m, nMeas, r, trials, rng)
		if err != nil {
			return nil, err
		}
		rndM, err := measureUnits("randomized", m, nMeas, r, trials, rng)
		if err != nil {
			return nil, err
		}
		t.AddRow(r, bccA, bccM, rndA, rndM, m-r+1, n)
	}
	t.Notes = append(t.Notes,
		"paper eq. (4): L_BCC = K_BCC (one unit per counted worker); eq. (6): L_random ~ m log m; eq. (8): L_CR = m-r+1",
		"BCC attains randomized-scheme thresholds at CR-like per-worker message sizes — the best of both",
		fmt.Sprintf("measured columns run on n=%d workers: random placements need n >> m/r to cover every example", nMeas),
	)
	return t, nil
}

// measureUnits Monte-Carlos the decoder's counted communication units.
func measureUnits(scheme string, m, n, r, trials int, rng *rngutil.RNG) (float64, error) {
	sch, err := coding.Lookup(scheme)
	if err != nil {
		return 0, err
	}
	gs := scalarGradients(m)
	var sum float64
	for k := 0; k < trials; k++ {
		plan, err := sch.Plan(m, n, r, rng)
		if err != nil {
			return 0, err
		}
		_, units, err := decodeThreshold(plan, gs, rng.Perm(n))
		if err != nil {
			return 0, fmt.Errorf("experiments: %s: %w", scheme, err)
		}
		sum += units
	}
	return sum / float64(trials), nil
}

// Fractional reproduces the footnote-2 ablation: the fractional repetition
// scheme finishes earlier than its worst case on average, landing between
// CR and BCC.
func Fractional(ctx context.Context, opt Options) (*Table, error) {
	m := 60
	if opt.Quick {
		m = 24
	}
	trials := opt.trials(400)
	rng := rngutil.New(opt.seed())
	t := &Table{
		ID:      "fractional",
		Title:   fmt.Sprintf("expected recovery thresholds: CR vs fractional repetition vs BCC (m=n=%d)", m),
		Columns: []string{"r", "CR (worst case)", "FR analytic E[K]", "FR measured E[K]", "BCC analytic E[K]"},
	}
	for _, r := range []int{2, 3, 4, 5, 6, 10} {
		if m%r != 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sch, err := coding.Lookup("fractional")
		if err != nil {
			return nil, err
		}
		plan, err := sch.Plan(m, m, r, rng)
		if err != nil {
			return nil, err
		}
		analytic := plan.ExpectedThreshold()
		gs := scalarGradients(m)
		var sum float64
		for k := 0; k < trials; k++ {
			heard, _, err := decodeThreshold(plan, gs, rng.Perm(m))
			if err != nil {
				return nil, err
			}
			sum += float64(heard)
		}
		t.AddRow(r, m-r+1, analytic, sum/float64(trials), math.Min(coupon.BCCRecoveryThreshold(m, r), float64(m)))
	}
	t.Notes = append(t.Notes,
		"paper footnote 2: although designed for the worst case, FR can finish before m-r+1 workers",
	)
	return t, nil
}

// TailBound validates Lemma 2 empirically: the probability the collector
// needs more than (1+eps) N log N draws never exceeds N^-eps.
func TailBound(ctx context.Context, opt Options) (*Table, error) {
	n := 50
	if opt.Quick {
		n = 20
	}
	trials := opt.trials(20000)
	rng := rngutil.New(opt.seed())
	t := &Table{
		ID:      "tailbound",
		Title:   fmt.Sprintf("Lemma 2 tail bound, N=%d coupon types (%d trials)", n, trials),
		Columns: []string{"eps", "threshold (1+eps)N ln N", "empirical P(M >= thr)", "Lemma 2 bound N^-eps"},
	}
	for _, eps := range []float64{0, 0.25, 0.5, 1.0} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		thr := (1 + eps) * float64(n) * math.Log(float64(n))
		exceed := 0
		for k := 0; k < trials; k++ {
			if float64(coupon.SimulateDraws(n, rng)) >= thr {
				exceed++
			}
		}
		emp := float64(exceed) / float64(trials)
		t.AddRow(eps, thr, emp, coupon.TailBound(n, eps))
	}
	t.Notes = append(t.Notes, "the empirical column must sit below the bound column for every eps")
	return t, nil
}
