package pmw

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/query"
)

// newGaussianFixture wires the §A.6 extension: Gaussian executor + a Rényi
// block enforcing a target (ε_G, δ_G)-DP guarantee.
func newGaussianFixture(t *testing.T, epsG, deltaG float64) (*PMW, accountant.Window, *dataset.Dataset) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := dataset.New(dom, 1)
	counts := []int{100, 200, 300, 400, 4000, 600, 700, 1700}
	for bin, c := range counts {
		_ = addCount(ds, 0, bin, c)
	}
	rng := noise.NewRng(31)
	n := ds.NRowsAll()
	alpha, beta, tau := 0.05, 0.001, 0.25
	eps := noise.EpsilonForAccuracy(alpha, beta, n)
	sigma := noise.GaussianSigmaForBypass(alpha, n, eps, tau)
	exec := dataset.NewExecutor(ds, rng.Fork()).WithGaussian(sigma)
	filter := accountant.Window{Block: accountant.NewBlockForDP(accountant.DefaultOrders, epsG, deltaG, 1)}
	payer := LaplacePayer(filter, eps)
	payer.Release = accountant.Gaussian(sigma, 1/float64(n))
	p, err := New(Config{
		Alpha: alpha, Beta: beta, N: n, DomainSize: dom.Size(),
		Tau: tau, LR: Constant(0.2),
		Heuristic: heuristic.NewAdaptivePerBin(2, 1),
	}, RangeExecutor{Exec: exec, Start: 0, End: 0}, payer, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return p, filter, ds
}

func TestGaussianPMWBypassAccuracy(t *testing.T) {
	p, _, ds := newGaussianFixture(t, 50, 1e-6)
	dom := ds.Domain()
	q := query.MustNew(dom, map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 0)
	bad := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		res, err := p.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-truth) > 0.05 {
			bad++
		}
	}
	if bad > 2 {
		t.Fatalf("%d/%d Gaussian answers outside α", bad, trials)
	}
}

func TestGaussianPMWBypassTrainsAndGoesFree(t *testing.T) {
	p, filter, ds := newGaussianFixture(t, 50, 1e-6)
	dom := ds.Domain()
	var qs []*query.Query
	for pv := 0; pv < 2; pv++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {pv}, 1: {a}}))
		}
	}
	for round := 0; round < 6; round++ {
		for _, q := range qs {
			if _, err := p.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.Stats().R1 == 0 {
		t.Fatalf("Gaussian PMW-Bypass never reached the free path: %+v", p.Stats())
	}
	// Accepted history must convert to at most the configured ε_G.
	if got := filter.Spent(); got > 50+1e-6 {
		t.Fatalf("spent %g exceeds eps_G", got)
	}
}

func TestGaussianPMWBypassRespectsRDPBudget(t *testing.T) {
	// Small (but feasible: ε_G must exceed ln(1/δ)/(α_max−1) for some
	// order) budget: the filter must stop the PMW and the accepted
	// history must convert to at most ε_G.
	p, filter, ds := newGaussianFixture(t, 0.5, 1e-6)
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})
	var err error
	for i := 0; i < 100000; i++ {
		if _, err = p.Run(q); err != nil {
			break
		}
	}
	if !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want exhaustion", err)
	}
	if got := filter.Spent(); got > 0.5+1e-9 {
		t.Fatalf("spent DP %g exceeds eps_G", got)
	}
}

func TestRDPPayerLaplacePricing(t *testing.T) {
	// A Laplace payer on a Rényi block prices direct executions by the
	// Laplace RDP curve; many payments should fit where basic composition
	// would not.
	eps := 0.01
	filter := accountant.Window{Block: accountant.NewBlockForDP(accountant.DefaultOrders, 1.0, 1e-6, 1)}
	payer := LaplacePayer(filter, eps)
	accepted := 0
	for i := 0; i < 100000; i++ {
		if payer.PayLaplace() != nil {
			break
		}
		accepted++
	}
	// Basic composition at ε_G=1 admits 100 payments of 0.01; RDP should
	// admit strictly more.
	if accepted <= 100 {
		t.Fatalf("RDP accounting admitted only %d payments (basic composition: 100)", accepted)
	}
	if got := filter.Spent(); got > 1+1e-9 || got < 0.9 {
		t.Fatalf("refused at a converted spend of %g, want just under ε_G = 1", got)
	}
}

func TestCutoffBoundsBypassDrain(t *testing.T) {
	// §A.5: wrapping the heuristic in a cutoff forces the PMW branch
	// after k bypass queries, so budget-consuming queries without updates
	// are bounded by k.
	dom := domain.MustNew(domain.Attribute{Name: "x", Card: 8})
	ds := dataset.New(dom, 1)
	for b := 0; b < 8; b++ {
		_ = addCount(ds, 0, b, 1000+b*500)
	}
	rng := noise.NewRng(77)
	exec := dataset.NewExecutor(ds, rng.Fork())
	filt := accountant.Window{Block: accountant.NewBlock(1000, 1)}
	n := ds.NRowsAll()
	cut := heuristic.NewCutoff(heuristic.NeverReady{}, 5)
	p, err := New(Config{
		Alpha: 0.05, Beta: 0.001, N: n, DomainSize: 8,
		Tau: 0.25, LR: Constant(0.1), Heuristic: cut,
	}, RangeExecutor{Exec: exec, Start: 0, End: 0},
		LaplacePayer(filt, noise.EpsilonForAccuracy(0.05, 0.001, n)),
		rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {3}})
	r3s := 0
	for i := 0; i < 50; i++ {
		res, err := p.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == PathR3 {
			r3s++
		}
	}
	if r3s > 5 {
		t.Fatalf("cutoff allowed %d bypass queries, want ≤ 5", r3s)
	}
	if p.Stats().R1+p.Stats().R2 == 0 {
		t.Fatal("cutoff never forced the PMW branch")
	}
}
