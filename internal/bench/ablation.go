// Ablation experiments beyond the paper's printed figures, covering the
// design choices DESIGN.md calls out: the external-update margin τ, the
// warm-start prior quality (Thm A.9's λ), Rényi vs pure-DP composition
// (§A.6), and the §A.5 bypass cutoff under an adversarial drain workload.

package bench

import (
	"errors"
	"fmt"

	"repro/internal/accountant"
	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

// TauSweep measures final budget and update counts for a range of
// external-update margins τ. Too small a margin admits noise-driven
// updates (wasted, possibly oscillating training); too large a margin
// starves the histogram and keeps the PMW on the paid bypass path.
func TauSweep(sc Scale) (Result, error) {
	taus := []float64{0.01, 0.05, 0.1, 0.25, 0.5}
	budget := Series{Name: "final-budget"}
	updates := Series{Name: "updates"}
	for i, tau := range taus {
		env, err := NewCovidEnv(sc, 130)
		if err != nil {
			return Result{}, err
		}
		env.Tau = tau
		p, block, err := env.newStandalonePMW(false, env.lr(),
			heuristic.NewAdaptivePerBin(env.C0, env.S0), 600+uint64(i))
		if err != nil {
			return Result{}, err
		}
		z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
		if err != nil {
			return Result{}, err
		}
		for k := 0; k < sc.Queries; k++ {
			if _, err := p.Run(z.Sample()); err != nil {
				if errors.Is(err, accountant.ErrBudgetExhausted) {
					break
				}
				return Result{}, err
			}
		}
		budget.Points = append(budget.Points, Point{X: tau, Y: block.AverageSpent()})
		updates.Points = append(updates.Points, Point{X: tau, Y: float64(p.Stats().Updates)})
	}
	return Result{
		Name:   "ablation-tau",
		XLabel: "tau",
		YLabel: "final budget / updates",
		Series: []Series{budget, updates},
		Notes:  []string{"Covid kzipf=1; §4.3 external-update margin"},
	}, nil
}

// WarmStartPriors measures empirical convergence when the histogram is
// warm-started from priors of decreasing quality, quantifying Thm A.9:
// convergence cost scales with ln(λ|X|), so a good prior (λ close to 1,
// trained on similar data) converges faster than uniform, and a *wrong*
// prior still converges (the theorem's point) but more slowly.
func WarmStartPriors(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 131)
	if err != nil {
		return Result{}, err
	}
	start, end := fullRange(env.DS)
	truth, err := env.DS.TrueDistribution(start, end)
	if err != nil {
		return Result{}, err
	}

	priors := []struct {
		name string
		mk   func() (*histogram.Histogram, error)
	}{
		{"uniform", func() (*histogram.Histogram, error) {
			return histogram.NewUniform(env.DS.Domain().Size()), nil
		}},
		{"good-prior", func() (*histogram.Histogram, error) {
			// Mix of truth and uniform: what a trained previous
			// partition provides.
			w := make([]float64, len(truth))
			u := 1.0 / float64(len(truth))
			for i := range w {
				w[i] = 0.8*truth[i] + 0.2*u
			}
			return histogram.FromWeights(w)
		}},
		{"wrong-prior", func() (*histogram.Histogram, error) {
			// Reversed truth: the worst plausible carry-over.
			w := make([]float64, len(truth))
			u := 1.0 / float64(len(truth))
			for i := range w {
				w[i] = 0.8*truth[len(truth)-1-i] + 0.2*u
			}
			return histogram.FromWeights(w)
		}},
	}

	s := Series{Name: "updates-to-converge"}
	lambdas := Series{Name: "lambda"}
	var notes []string
	for xi, pr := range priors {
		h, err := pr.mk()
		if err != nil {
			return Result{}, err
		}
		lambda0 := h.Lambda() // before training mutates the prior
		p, _, err := env.newStandalonePMW(false, env.lr(),
			heuristic.NewAdaptivePerBin(env.C0, env.S0), 700+uint64(xi))
		if err != nil {
			return Result{}, err
		}
		if err := p.WarmStart(h, nil); err != nil {
			return Result{}, err
		}
		z, err := workload.NewZipf(env.Pool, 1, env.Rng.Fork())
		if err != nil {
			return Result{}, err
		}
		validator, err := workload.NewValidator(env.Pool, 300, env.Alpha, env.DS, start, end, env.Rng.Fork())
		if err != nil {
			return Result{}, err
		}
		converged := -1
		for k := 0; k < sc.Queries*4; k++ {
			if _, err := p.Run(z.Sample()); err != nil {
				if errors.Is(err, accountant.ErrBudgetExhausted) {
					break
				}
				return Result{}, err
			}
			if k%200 == 199 && validator.Converged(p.Histogram()) {
				converged = p.Histogram().Updates()
				break
			}
		}
		if converged < 0 {
			converged = p.Histogram().Updates()
		}
		s.Points = append(s.Points, Point{X: float64(xi), Y: float64(converged)})
		lambdas.Points = append(lambdas.Points, Point{X: float64(xi), Y: lambda0})
		notes = append(notes, fmt.Sprintf("%d=%s (λ=%.2f)", xi, pr.name, lambda0))
	}
	return Result{
		Name:   "ablation-warmstart",
		XLabel: "prior (see notes)",
		YLabel: "updates to 90% validation accuracy",
		Series: []Series{s, lambdas},
		Notes:  notes,
	}, nil
}

// RDPvsPure counts how many identical Laplace-mechanism payments fit
// under a fixed guarantee with basic pure-DP composition versus Rényi
// composition converted at δ=1e-6 (§A.6's motivation).
func RDPvsPure(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 132)
	if err != nil {
		return Result{}, err
	}
	n := env.DS.NRowsAll()
	eps := noise.EpsilonForAccuracy(env.Alpha, env.Beta, n)

	// capacity counts the identical Laplace payments one partition of a
	// private measurement block admits; it spends no shared budget.
	capacity := func(b *accountant.Block) int {
		n := 0
		for n <= 100_000_000 && b.PayRange(0, 0, accountant.Laplace(eps)) == nil { //turbo:allow(chargepath)
			n++
		}
		return n
	}
	purePayments := capacity(accountant.NewBlock(env.EpsG, 1))
	rdpPayments := capacity(accountant.NewBlockForDP(accountant.DefaultOrders, env.EpsG, 1e-6, 1))
	return Result{
		Name:   "ablation-rdp-vs-pure",
		XLabel: "composition (0=pure 1=rdp)",
		YLabel: "Laplace executions admitted under the guarantee",
		Series: []Series{{Name: "payments", Points: []Point{
			{X: 0, Y: float64(purePayments)},
			{X: 1, Y: float64(rdpPayments)},
		}}},
		Notes: []string{fmt.Sprintf("per-query ε=%.3g, ε_G=%g, δ=1e-6", eps, env.EpsG)},
	}, nil
}

// AdversarialDrain measures the §A.5 attack: an analyst issuing
// always-fresh queries that never train the histogram bins they touch
// enough to become free, draining budget through the bypass branch. The
// cutoff wrapper bounds the drain by forcing the PMW branch after k
// bypasses.
func AdversarialDrain(sc Scale) (Result, error) {
	env, err := NewCovidEnv(sc, 133)
	if err != nil {
		return Result{}, err
	}
	dom := env.DS.Domain()
	// Adversarial stream: rotate through single-bin queries over the
	// largest attribute so per-bin counters never reach C0.
	mkQuery := func(i int) *query.Query {
		return query.MustNew(dom, map[int][]int{
			0: {i % 2}, 1: {(i / 2) % 4}, 2: {(i / 8) % 2}, 3: {(i / 16) % 8},
		})
	}
	configs := []struct {
		name string
		mk   func() heuristic.Heuristic
	}{
		{"no-cutoff", func() heuristic.Heuristic {
			return heuristic.NewAdaptivePerBin(1000, 1) // pessimistic: always bypass
		}},
		{"cutoff-k500", func() heuristic.Heuristic {
			return heuristic.NewCutoff(heuristic.NewAdaptivePerBin(1000, 1), 500)
		}},
	}
	var series []Series
	for ci, cfg := range configs {
		p, block, err := env.newStandalonePMW(false, env.lr(), cfg.mk(), 800+uint64(ci))
		if err != nil {
			return Result{}, err
		}
		s := Series{Name: cfg.name}
		for i := 0; i < sc.Queries; i++ {
			if _, err := p.Run(mkQuery(i)); err != nil {
				if errors.Is(err, accountant.ErrBudgetExhausted) {
					break
				}
				return Result{}, err
			}
			if (i+1)%(sc.Queries/10) == 0 {
				s.Points = append(s.Points, Point{X: float64(i + 1), Y: block.AverageSpent()})
			}
		}
		series = append(series, s)
	}
	return Result{
		Name:   "ablation-adversarial-drain",
		XLabel: "queries",
		YLabel: "cumulative budget",
		Series: series,
		Notes: []string{
			"rotating single-bin queries against a pessimistic heuristic",
			"expected: no-cutoff drains linearly; cutoff flattens once the PMW branch is forced",
		},
	}, nil
}
