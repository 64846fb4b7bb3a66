package pmw

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/noise"
	"repro/internal/query"
)

// addCount loads count rows of the encoded value bin into partition p of
// ds: a one-hot BulkLoad.
func addCount(ds *dataset.Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

// fixture builds a single-partition dataset with a skewed distribution and
// a PMW over it.
type fixture struct {
	dom   *domain.Domain
	ds    *dataset.Dataset
	exec  *dataset.Executor
	filt  accountant.Window
	pmw   *PMW
	eps   float64
	alpha float64
}

func newFixture(t *testing.T, cfgMut func(*Config), global float64) *fixture {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := dataset.New(dom, 1)
	// Skewed ground truth: bin (1,0) heavy.
	counts := []int{100, 200, 300, 400, 4000, 600, 700, 1700}
	for bin, c := range counts {
		if err := addCount(ds, 0, bin, c); err != nil {
			t.Fatal(err)
		}
	}
	rng := noise.NewRng(17)
	exec := dataset.NewExecutor(ds, rng.Fork())
	filt := accountant.Window{Block: accountant.NewBlock(global, 1)}
	cfg := Config{
		Alpha: 0.05, Beta: 0.001,
		N: ds.NRowsAll(), DomainSize: dom.Size(),
		Tau: 0.25, LR: Constant(0.2),
		Heuristic: heuristic.NewAdaptivePerBin(2, 1),
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	eps := noise.EpsilonForAccuracy(cfg.Alpha, cfg.Beta, cfg.N)
	p, err := New(cfg,
		RangeExecutor{Exec: exec, Start: 0, End: 0},
		LaplacePayer(filt, eps),
		rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{dom: dom, ds: ds, exec: exec, filt: filt, pmw: p, eps: eps, alpha: cfg.Alpha}
}

func TestConfigValidation(t *testing.T) {
	good := Config{Alpha: 0.05, Beta: 0.001, N: 100, DomainSize: 8, Tau: 0.25}
	bads := []func(c *Config){
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.Beta = 0 },
		func(c *Config) { c.Beta = 1 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.DomainSize = 0 },
		func(c *Config) { c.Tau = 0 },
		func(c *Config) { c.Tau = 0.6 },
	}
	dom := domain.MustNew(domain.Attribute{Name: "x", Card: 8})
	ds := dataset.New(dom, 1)
	_ = addCount(ds, 0, 0, 100)
	exec := dataset.NewExecutor(ds, noise.NewRng(1))
	payer := LaplacePayer(accountant.Window{Block: accountant.NewBlock(1, 1)}, 0.1)
	for i, mut := range bads {
		c := good
		mut(&c)
		if _, err := New(c, RangeExecutor{Exec: exec, Start: 0, End: 0}, payer, noise.NewRng(1)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(good, nil, payer, noise.NewRng(1)); err == nil {
		t.Error("nil executor accepted")
	}
	if _, err := New(good, RangeExecutor{Exec: exec, Start: 0, End: 0}, nil, noise.NewRng(1)); err == nil {
		t.Error("nil payer accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.LR = nil; c.Heuristic = nil }, 1000)
	if f.pmw.Epsilon() != noise.EpsilonForAccuracy(0.05, 0.001, f.ds.NRowsAll()) {
		t.Fatal("default epsilon not calibrated")
	}
	if f.pmw.Heuristic() == nil {
		t.Fatal("no default heuristic")
	}
}

func TestBypassPathPaysEpsilon(t *testing.T) {
	f := newFixture(t, nil, 1000)
	q := query.MustNew(f.dom, map[int][]int{0: {1}})
	res, err := f.pmw.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathR3 {
		t.Fatalf("cold query path = %v, want R3", res.Path)
	}
	if math.Abs(res.Paid-f.eps) > 1e-12 {
		t.Fatalf("R3 paid %g, want ε = %g", res.Paid, f.eps)
	}
	if math.Abs(f.filt.Spent()-f.eps) > 1e-12 {
		t.Fatalf("accountant spent %g, want %g", f.filt.Spent(), f.eps)
	}
	st := f.pmw.Stats()
	if st.R3 != 1 || st.Queries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBypassResultAccuracy(t *testing.T) {
	f := newFixture(t, nil, 1000)
	q := query.MustNew(f.dom, map[int][]int{0: {1}})
	truth, _ := f.ds.TrueFraction(q, 0, 0)
	bad := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		res, err := f.pmw.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == PathR1 {
			continue // histogram answers tested separately
		}
		if math.Abs(res.Value-truth) > f.alpha {
			bad++
		}
	}
	if bad > 2 { // β = 0.001, so even 1 failure in 200 is rare
		t.Fatalf("%d/%d released answers outside α", bad, trials)
	}
}

func TestTrainingThenFreeQueries(t *testing.T) {
	f := newFixture(t, nil, 1000)
	// All 8 point queries, repeated: after training each bin past C0=2
	// the heuristic routes to the PMW branch and answers become free.
	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(f.dom, map[int][]int{0: {p}, 1: {a}}))
		}
	}
	for round := 0; round < 6; round++ {
		for _, q := range qs {
			if _, err := f.pmw.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := f.pmw.Stats()
	if st.R1 == 0 {
		t.Fatalf("never reached the free path: %+v", st)
	}
	// Free answers must dominate by the end.
	spentBefore := f.filt.Spent()
	free := 0
	for _, q := range qs {
		res, err := f.pmw.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == PathR1 {
			free++
			if res.Paid != 0 {
				t.Fatal("R1 answer paid budget")
			}
		}
	}
	if free < len(qs)/2 {
		t.Fatalf("only %d/%d queries free after training", free, len(qs))
	}
	if f.filt.Spent() > spentBefore+4*f.eps*float64(len(qs))/2 {
		t.Fatal("trained PMW still burning budget heavily")
	}
}

func TestR2PathCost(t *testing.T) {
	// Force the PMW branch with an untrained histogram: the SV fails and
	// the query pays 4ε (plus the one-time lazy 3ε SV init).
	f := newFixture(t, func(c *Config) { c.Heuristic = heuristic.AlwaysReady{} }, 1000)
	q := query.MustNew(f.dom, map[int][]int{0: {1}, 1: {0}}) // truth far from uniform prior
	res, err := f.pmw.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathR2 {
		t.Fatalf("path = %v, want R2", res.Path)
	}
	if math.Abs(res.Paid-4*f.eps) > 1e-12 {
		t.Fatalf("R2 paid %g, want 4ε", res.Paid)
	}
	wantTotal := 3*f.eps + 4*f.eps // lazy SV init + miss
	if math.Abs(f.filt.Spent()-wantTotal) > 1e-12 {
		t.Fatalf("spent %g, want %g", f.filt.Spent(), wantTotal)
	}
	if !res.Updated {
		t.Fatal("R2 must update the histogram")
	}
}

func TestVanillaPMWBurnsBudgetDuringTraining(t *testing.T) {
	// Vanilla PMW (always-ready) pays 4ε per miss; PMW-Bypass pays ε.
	// Over an untrained phase the vanilla accountant must show roughly 4×
	// the consumption — the core observation of Fig. 3.
	van := newFixture(t, func(c *Config) { c.Heuristic = heuristic.AlwaysReady{} }, 1000)
	byp := newFixture(t, func(c *Config) { c.Heuristic = heuristic.NeverReady{} }, 1000)
	var qs []*query.Query
	for a := 0; a < 4; a++ {
		qs = append(qs, query.MustNew(van.dom, map[int][]int{0: {1}, 1: {a}}))
	}
	for i := 0; i < 3; i++ {
		for _, q := range qs {
			if _, err := van.pmw.Run(q); err != nil {
				t.Fatal(err)
			}
			if _, err := byp.pmw.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if van.filt.Spent() < 2*byp.filt.Spent() {
		t.Fatalf("vanilla %g not ≫ bypass %g during training", van.filt.Spent(), byp.filt.Spent())
	}
}

// scriptedExecutor answers every query with fixed true and DP results,
// so a test can place a release exactly relative to the estimate.
type scriptedExecutor struct{ truth, dp float64 }

func (e *scriptedExecutor) True(*query.Query) (float64, error)                 { return e.truth, nil }
func (e *scriptedExecutor) DP(*query.Query, float64, float64) (float64, error) { return e.dp, nil }

// newScripted builds a PMW over a scripted executor, routed by heur.
func newScripted(t *testing.T, heur heuristic.Heuristic) (*PMW, *scriptedExecutor, *query.Query) {
	t.Helper()
	dom := domain.MustNew(domain.Attribute{Name: "p", Card: 2}, domain.Attribute{Name: "a", Card: 4})
	exec := &scriptedExecutor{}
	cfg := Config{
		Alpha: 0.05, Beta: 0.001, N: 100_000, DomainSize: dom.Size(),
		Tau: 0.25, LR: Constant(0.2), Heuristic: heur,
	}
	filt := accountant.Window{Block: accountant.NewBlock(1000, 1)}
	p, err := New(cfg, exec, LaplacePayer(filt, noise.EpsilonForAccuracy(cfg.Alpha, cfg.Beta, cfg.N)), noise.NewRng(21))
	if err != nil {
		t.Fatal(err)
	}
	return p, exec, query.MustNew(dom, map[int][]int{0: {1}})
}

// TestExternalUpdateMargin pins the bypass branch's external update
// (Alg. 1 ll.29-34): a release within τα of the estimate leaves the
// histogram alone, one beyond it moves the estimate toward itself.
func TestExternalUpdateMargin(t *testing.T) {
	p, exec, q := newScripted(t, heuristic.NeverReady{})
	est := p.Histogram().Eval(q)
	margin := 0.25 * 0.05 // τα
	exec.dp = est + margin/2
	if res, err := p.Run(q); err != nil || res.Path != PathR3 || res.Updated || p.Histogram().Eval(q) != est {
		t.Fatalf("release inside the margin: %+v, %v", res, err)
	}
	exec.dp = est + 2*margin
	if res, err := p.Run(q); err != nil || !res.Updated {
		t.Fatalf("release above the margin: %+v, %v", res, err)
	}
	after := p.Histogram().Eval(q)
	if after <= est {
		t.Fatal("upward external update did not raise the estimate")
	}
	exec.dp = after - 2*margin
	if res, err := p.Run(q); err != nil || !res.Updated {
		t.Fatalf("release below the margin: %+v, %v", res, err)
	}
	if p.Histogram().Eval(q) >= after {
		t.Fatal("downward external update did not lower the estimate")
	}
	if p.Stats().Updates != 2 {
		t.Fatalf("updates = %d, want 2", p.Stats().Updates)
	}
}

// TestDirectedUpdate pins the update of Alg. 1's PMW branch: when
// the SV test fails, the histogram steps in the direction of the paid
// release relative to the estimate, whatever the true result was.
func TestDirectedUpdate(t *testing.T) {
	p, exec, q := newScripted(t, heuristic.AlwaysReady{})
	before := p.Histogram().Eval(q)
	exec.truth, exec.dp = before+0.5, before+0.1 // far from the estimate: the SV fails
	if res, err := p.Run(q); err != nil || res.Path != PathR2 || !res.Updated {
		t.Fatalf("first run: %+v, %v", res, err)
	}
	if p.Histogram().Eval(q) <= before {
		t.Fatal("release above the estimate did not raise it")
	}
	exec.truth, exec.dp = before+0.5, 0 // the truth is still above; the release is below
	for i := 0; i < 2; i++ {
		if res, err := p.Run(q); err != nil || res.Path != PathR2 {
			t.Fatalf("run %d: %+v, %v", i, res, err)
		}
	}
	if p.Histogram().Eval(q) >= before {
		t.Fatal("releases below the estimate did not lower it")
	}
	if p.Stats().Updates != 3 {
		t.Fatalf("updates = %d", p.Stats().Updates)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	f := newFixture(t, nil, 1e-9) // essentially no budget
	q := query.MustNew(f.dom, map[int][]int{0: {1}})
	_, err := f.pmw.Run(q)
	if !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !errors.Is(err, ErrNoBudget) {
		t.Fatal("ErrNoBudget alias broken")
	}
	if f.filt.Spent() != 0 {
		t.Fatal("failed query deducted budget")
	}
	if f.pmw.Stats().Queries != 0 {
		t.Fatal("failed query counted as answered")
	}
}

func TestWarmStart(t *testing.T) {
	f1 := newFixture(t, nil, 1000)
	q := query.MustNew(f1.dom, map[int][]int{0: {1}})
	for i := 0; i < 5; i++ {
		if _, err := f1.pmw.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	trained := f1.pmw.Histogram().Clone()

	f2 := newFixture(t, nil, 1000)
	if err := f2.pmw.WarmStart(trained, heuristic.NewAdaptivePerBin(2, 1)); err != nil {
		t.Fatal(err)
	}
	if f2.pmw.Histogram().Eval(q) != trained.Eval(q) {
		t.Fatal("warm-started histogram not installed")
	}
	// WarmStart after queries is rejected.
	if _, err := f2.pmw.Run(q); err != nil {
		t.Fatal(err)
	}
	if err := f2.pmw.WarmStart(trained, nil); err == nil {
		t.Fatal("WarmStart after queries accepted")
	}
	// Size and normalization checks.
	f3 := newFixture(t, nil, 1000)
	if err := f3.pmw.WarmStart(histogram.NewUniform(4), nil); err == nil {
		t.Fatal("size-mismatched warm start accepted")
	}
}

func TestWorstCaseUpdateBound(t *testing.T) {
	f := newFixture(t, nil, 1000)
	// Thm A.4: ln|X| / (η(τα−η)/2) with η = lr, τ = 0.25, α = 0.05.
	eta := 0.005
	got := worstCaseUpdateBound(f.pmw, eta)
	want := math.Log(8) / (eta * (0.25*0.05 - eta) / 2)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("bound = %g, want %g", got, want)
	}
	// Precondition violation → +Inf.
	if !math.IsInf(worstCaseUpdateBound(f.pmw, 0.05), 1) {
		t.Fatal("bound finite despite η/α ≥ τ")
	}
	if !math.IsInf(worstCaseUpdateBound(f.pmw, 0), 1) {
		t.Fatal("bound finite for η = 0")
	}
}

func TestEmpiricalUpdatesWithinWorstCase(t *testing.T) {
	// With a constant small lr satisfying the precondition, total
	// purposeful updates on a long workload must stay within Thm A.4.
	eta := 0.005
	f := newFixture(t, func(c *Config) { c.LR = Constant(eta) }, 1e6)
	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(f.dom, map[int][]int{0: {p}, 1: {a}}))
		}
	}
	for round := 0; round < 200; round++ {
		for _, q := range qs {
			if _, err := f.pmw.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	bound := worstCaseUpdateBound(f.pmw, eta)
	if got := float64(f.pmw.Stats().Updates); got > bound {
		t.Fatalf("updates %g exceed worst-case bound %g", got, bound)
	}
}

// worstCaseUpdateBound returns the Thm A.4 bound on purposeful updates,
// ln|X| / (η(τα−η)/2), for the configured τ and a constant learning rate
// η; it returns +Inf when η/α ≥ τ (the precondition fails).
func worstCaseUpdateBound(p *PMW, eta float64) float64 {
	alpha, tau := p.cfg.Alpha, p.cfg.Tau
	if eta <= 0 || eta/alpha >= tau {
		return math.Inf(1)
	}
	return math.Log(float64(p.cfg.DomainSize)) / (eta * (tau*alpha - eta) / 2)
}
