package engine

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/query"
)

// addCount loads count rows of the encoded value bin into partition p of
// ds: a one-hot BulkLoad.
func addCount(ds *dataset.Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

func build(t *testing.T) (*domain.Domain, *dataset.Dataset) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := dataset.New(dom, 2)
	for w := 0; w < 2; w++ {
		for a := 0; a < 4; a++ {
			_ = addCount(ds, w, dom.Encode([]int{1, a}), 1000+100*a)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), 4000-150*a)
		}
	}
	return dom, ds
}

func TestCoreDeductsBeforeEvaluating(t *testing.T) {
	dom, ds := build(t)
	core := NewCore(ds, 1.0, 1)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	if _, err := core.Evaluate(LaplaceCount{Query: q, Eps: 0.4}); err != nil {
		t.Fatal(err)
	}
	if core.Spent() != 0.4 {
		t.Fatalf("Spent = %g", core.Spent())
	}
	// A measurement whose cost busts the guarantee is not executed.
	before := core.Evaluated()
	if _, err := core.Evaluate(LaplaceCount{Query: q, Eps: 0.7}); !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if core.Evaluated() != before {
		t.Fatal("unpaid measurement was executed")
	}
	if core.Spent() != 0.4 {
		t.Fatal("failed payment deducted")
	}
}

func TestLaplaceCountAccuracy(t *testing.T) {
	dom, ds := build(t)
	core := NewCore(ds, 1000, 2)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 1)
	n := ds.NRowsAll()
	eps := noise.EpsilonForAccuracy(0.05, 0.001, n)
	bad := 0
	for i := 0; i < 200; i++ {
		r, err := core.Evaluate(LaplaceCount{Query: q, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-truth) > 0.05 {
			bad++
		}
	}
	if bad > 2 {
		t.Fatalf("%d/200 outside α", bad)
	}
}

func TestLaplaceCountErrors(t *testing.T) {
	dom, ds := build(t)
	core := NewCore(ds, 10, 3)
	q := query.MustNew(dom, nil)
	if _, err := core.Evaluate(LaplaceCount{Query: q, Eps: 0}); err == nil {
		t.Fatal("eps=0 accepted")
	}
	empty := dataset.New(dom, 1)
	core2 := NewCore(empty, 10, 3)
	if _, err := core2.Evaluate(LaplaceCount{Query: q, Eps: 0.1}); err == nil {
		t.Fatal("empty view accepted")
	}
}

func TestSessionCalibratesBudget(t *testing.T) {
	dom, ds := build(t)
	core := NewCore(ds, 1000, 4)
	sess, err := NewSession(core, 0.05, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	if _, err := sess.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	want := noise.EpsilonForAccuracy(0.05, 0.001, ds.NRowsAll())
	if math.Abs(core.Spent()-want) > 1e-12 {
		t.Fatalf("spent %g, want calibrated %g", core.Spent(), want)
	}
	// Windowed queries evaluate against the windowed view's n.
	qw := q.WithWindow(0, 0)
	spentBefore := core.Spent()
	if _, err := sess.Evaluate(qw); err != nil {
		t.Fatal(err)
	}
	n0, _ := ds.NRows(0, 0)
	wantW := noise.EpsilonForAccuracy(0.05, 0.001, n0)
	if math.Abs(core.Spent()-spentBefore-wantW) > 1e-12 {
		t.Fatal("windowed calibration wrong")
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, 0.05, 0.001); err == nil {
		t.Fatal("nil core accepted")
	}
	_, ds := build(t)
	core := NewCore(ds, 10, 5)
	if _, err := NewSession(core, 0, 0.001); err == nil {
		t.Fatal("bad alpha accepted")
	}
	if _, err := NewSession(core, 0.05, 1); err == nil {
		t.Fatal("bad beta accepted")
	}
}

func TestTurboSessionSavesBudget(t *testing.T) {
	// The integration claim: the same engine, via TurboSession, answers a
	// correlated workload with far less budget than plain evaluation.
	dom, dsA := build(t)
	_, dsB := build(t)

	plainCore := NewCore(dsA, 1000, 6)
	plain, _ := NewSession(plainCore, 0.05, 0.001)

	turboCore := NewCore(dsB, 1000, 6)
	inner, _ := NewSession(turboCore, 0.05, 0.001)
	ts, err := NewTurboSession(inner,
		heuristic.NewAdaptivePerBin(2, 1), pmw.Constant(0.2), 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}

	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a}}))
		}
	}
	for round := 0; round < 8; round++ {
		for _, q := range qs {
			if _, err := plain.Evaluate(q); err != nil {
				t.Fatal(err)
			}
			if _, err := ts.Evaluate(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if turboCore.Spent() >= plainCore.Spent() {
		t.Fatalf("turbo %g did not beat plain %g", turboCore.Spent(), plainCore.Spent())
	}
	turboN, failed := ts.Stats()
	if turboN == 0 || failed != 0 {
		t.Fatalf("stats = %d, %d", turboN, failed)
	}
	if ts.PMW().Stats().R1 == 0 {
		t.Fatal("turbo session never hit the free path")
	}
}

func TestTurboSessionAnswersAccurately(t *testing.T) {
	dom, ds := build(t)
	core := NewCore(ds, 1000, 8)
	inner, _ := NewSession(core, 0.05, 0.001)
	ts, err := NewTurboSession(inner, heuristic.NewAdaptivePerBin(2, 1), pmw.Constant(0.2), 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 1)
	bad := 0
	for i := 0; i < 200; i++ {
		r, err := ts.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-truth) > 0.05 {
			bad++
		}
	}
	if bad > 2 {
		t.Fatalf("%d/200 turbo answers outside α", bad)
	}
}

func TestTurboSessionFailsOver(t *testing.T) {
	dom, ds := build(t)
	core := NewCore(ds, 1000, 10)
	inner, _ := NewSession(core, 0.05, 0.001)
	ts, err := NewTurboSession(inner, nil, nil, 0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Windowed queries are outside the adapter's default scope: they must
	// still be answered, through the engine.
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 0)
	truth, _ := ds.TrueFraction(q, 0, 0)
	r, err := ts.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-truth) > 0.05 {
		t.Fatalf("failed-over answer %g vs %g", r, truth)
	}
	_, failed := ts.Stats()
	if failed != 1 {
		t.Fatalf("failedOver = %d", failed)
	}
	if core.Spent() == 0 {
		t.Fatal("fail-over path consumed nothing")
	}
}

func TestTurboSessionRespectsEngineGuarantee(t *testing.T) {
	dom, ds := build(t)
	core := NewCore(ds, 1e-9, 12) // essentially no budget
	inner, _ := NewSession(core, 0.05, 0.001)
	ts, err := NewTurboSession(inner, nil, nil, 0.25, 13)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	if _, err := ts.Evaluate(q); !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if core.Spent() != 0 {
		t.Fatal("refused query consumed budget")
	}
}

func TestTurboSessionValidation(t *testing.T) {
	if _, err := NewTurboSession(nil, nil, nil, 0.25, 1); err == nil {
		t.Fatal("nil inner accepted")
	}
	dom := domain.MustNew(domain.Attribute{Name: "x", Card: 2})
	empty := dataset.New(dom, 1)
	core := NewCore(empty, 10, 1)
	inner, _ := NewSession(core, 0.05, 0.001)
	if _, err := NewTurboSession(inner, nil, nil, 0.25, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestMeasurementDescriptions(t *testing.T) {
	dom, _ := build(t)
	q := query.MustNew(dom, nil)
	for _, m := range []Measurement{
		LaplaceCount{Query: q, Eps: 0.1},
		npCount{q: q},
		noiseOnly{q: q, eps: 0.1},
		consumeOnly{eps: 0.1},
	} {
		if m.Describe() == "" {
			t.Fatalf("%T has empty description", m)
		}
	}
	// npCount is free; consumeOnly costs what it says.
	if (npCount{q: q}).Cost() != 0 {
		t.Fatal("np measurement must report zero cost")
	}
	if (consumeOnly{eps: 0.3}).Cost() != 0.3 {
		t.Fatal("consume-only cost wrong")
	}
}
