// Ablation experiments beyond the paper's printed figures, covering the
// design choices the paper argues for: the external-update margin τ, the
// warm-start prior quality (Thm A.9's λ), Rényi vs pure-DP composition
// (§A.6), and the §A.5 bypass cutoff under an adversarial drain workload.

package bench

import (
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
	budget := Series{Name: "final-budget"}
	updates := Series{Name: "updates"}
	for i, tau := range []float64{0.01, 0.05, 0.1, 0.25, 0.5} {
		env, err := NewCovidEnv(sc, 130)
		if err != nil {
			return Result{}, err
		}
		env.Tau = tau
		a, p, err := env.pmwArm("", false, env.lr(), heuristic.NewAdaptivePerBin(env.C0, env.S0), 600+uint64(i))
		if err != nil {
			return Result{}, err
		}
		queries, err := env.sample(1, sc.Queries)
		if err != nil {
			return Result{}, err
		}
		spent, err := final(a, len(queries), true, from(queries))
		if err != nil {
			return Result{}, err
		}
		budget.Points = append(budget.Points, Point{X: tau, Y: spent})
		updates.Points = append(updates.Points, Point{X: tau, Y: float64(p.Histogram().Updates())})
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
	start, end := 0, env.DS.Partitions()-1
	truth, err := env.DS.TrueDistribution(start, end)
	if err != nil {
		return Result{}, err
	}
	// mix blends the distribution at(i) over the bins 0.8 : 0.2 with
	// uniform.
	mix := func(at func(i int) float64) (*histogram.Histogram, error) {
		w := make([]float64, len(truth))
		u := 1.0 / float64(len(truth))
		for i := range w {
			w[i] = 0.8*at(i) + 0.2*u
		}
		return histogram.FromWeights(w)
	}
	priors := []struct {
		name string
		mk   func() (*histogram.Histogram, error)
	}{
		{"uniform", func() (*histogram.Histogram, error) {
			return histogram.NewUniform(env.DS.Domain().Size()), nil
		}},
		// What a trained previous partition provides.
		{"good-prior", func() (*histogram.Histogram, error) {
			return mix(func(i int) float64 { return truth[i] })
		}},
		// Reversed truth: the worst plausible carry-over.
		{"wrong-prior", func() (*histogram.Histogram, error) {
			return mix(func(i int) float64 { return truth[len(truth)-1-i] })
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
		a, p, err := env.pmwArm("", false, env.lr(), heuristic.NewAdaptivePerBin(env.C0, env.S0), 700+uint64(xi))
		if err != nil {
			return Result{}, err
		}
		if err := p.WarmStart(h, nil); err != nil {
			return Result{}, err
		}
		queries, err := env.sample(1, sc.Queries*4)
		if err != nil {
			return Result{}, err
		}
		v, err := workload.NewValidator(env.Pool, 300, env.Alpha, env.DS, start, end, env.Rng.Fork())
		if err != nil {
			return Result{}, err
		}
		answered := 0
		a = converging(a, p, v, func() bool { answered++; return answered%200 == 0 })
		converged, err := final(a, len(queries), true, from(queries))
		if err != nil {
			return Result{}, err
		}
		s.Points = append(s.Points, Point{X: float64(xi), Y: converged})
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
	// Adversarial stream: rotate through single-bin queries over the
	// largest attribute so per-bin counters never reach C0.
	dom := env.DS.Domain()
	i := -1
	next := func() *query.Query {
		i++
		return query.MustNew(dom, map[int][]int{
			0: {i % 2}, 1: {(i / 2) % 4}, 2: {(i / 8) % 2}, 3: {(i / 16) % 8},
		})
	}
	configs := []struct {
		name string
		h    heuristic.Heuristic
	}{
		{"no-cutoff", heuristic.NewAdaptivePerBin(1000, 1)}, // pessimistic: always bypass
		{"cutoff-k500", heuristic.NewCutoff(heuristic.NewAdaptivePerBin(1000, 1), 500)},
	}
	var arms []arm
	for ci, c := range configs {
		a, _, err := env.pmwArm(c.name, false, env.lr(), c.h, 800+uint64(ci))
		if err != nil {
			return Result{}, err
		}
		arms = append(arms, a)
	}
	series, err := drive(arms, sc.Queries, 10, true, next)
	return Result{
		Name:   "ablation-adversarial-drain",
		XLabel: "queries",
		YLabel: "cumulative budget",
		Series: series,
		Notes: []string{
			"rotating single-bin queries against a pessimistic heuristic",
			"expected: no-cutoff drains linearly; cutoff flattens once the PMW branch is forced",
		},
	}, err
}
