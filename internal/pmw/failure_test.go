package pmw

import (
	"errors"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/query"
)

// faultyExecutor injects failures into chosen executor calls to verify
// the PMW's behaviour when the data layer misbehaves mid-protocol.
type faultyExecutor struct {
	inner    Executor
	failTrue bool
	failDP   bool
}

var errInjected = errors.New("injected executor failure")

func (f *faultyExecutor) True(q *query.Query) (float64, error) {
	if f.failTrue {
		return 0, errInjected
	}
	return f.inner.True(q)
}

func (f *faultyExecutor) DP(q *query.Query, eps float64, trueResult float64) (float64, error) {
	if f.failDP {
		return 0, errInjected
	}
	return f.inner.DP(q, eps, trueResult)
}

func newFaultyFixture(t *testing.T) (*PMW, *faultyExecutor, accountant.Window, *domain.Domain) {
	t.Helper()
	dom := domain.MustNew(domain.Attribute{Name: "x", Card: 8})
	ds := dataset.New(dom, 1)
	for b := 0; b < 8; b++ {
		_ = addCount(ds, 0, b, 1000+b*300)
	}
	rng := noise.NewRng(55)
	inner := RangeExecutor{Exec: dataset.NewExecutor(ds, rng.Fork()), Start: 0, End: 0}
	fe := &faultyExecutor{inner: inner}
	filt := accountant.Window{Block: accountant.NewBlock(1000, 1)}
	n := ds.NRowsAll()
	p, err := New(Config{
		Alpha: 0.05, Beta: 0.001, N: n, DomainSize: 8,
		Tau: 0.25, LR: Constant(0.2),
		Heuristic: heuristic.NewAdaptivePerBin(2, 1),
	}, fe, LaplacePayer(filt, noise.EpsilonForAccuracy(0.05, 0.001, n)), rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return p, fe, filt, dom
}

func TestBypassDPFailureSurfacesAfterPayment(t *testing.T) {
	// If the DP execution fails after payment, the error surfaces and
	// the budget stays deducted — over-counting consumption is the safe
	// direction for privacy, and the histogram must remain untouched.
	p, fe, filt, dom := newFaultyFixture(t)
	fe.failDP = true
	q := query.MustNew(dom, map[int][]int{0: {3}})
	before := p.Histogram().State()
	_, err := p.Run(q)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	if filt.Spent() == 0 {
		t.Fatal("payment rolled back after execution failure (unsafe direction)")
	}
	after := p.Histogram().State()
	for i := range before.Weights {
		if before.Weights[i] != after.Weights[i] {
			t.Fatal("failed execution mutated the histogram")
		}
	}
	// Recovery: clearing the fault restores normal service.
	fe.failDP = false
	if _, err := p.Run(q); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestPMWBranchTrueFailure(t *testing.T) {
	// The SV check needs the true result; if the scan fails, the query
	// fails without releasing anything and without consuming the SV.
	p, fe, _, dom := newFaultyFixture(t)
	q := query.MustNew(dom, map[int][]int{0: {3}})
	// Train until the heuristic routes to the PMW branch.
	for i := 0; i < 5; i++ {
		if _, err := p.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if !p.heur.IsReady(p.hist, q) {
		t.Skip("fixture did not reach readiness; nothing to inject into")
	}
	fe.failTrue = true
	if _, err := p.Run(q); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	fe.failTrue = false
	if _, err := p.Run(q); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}
