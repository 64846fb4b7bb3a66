package heuristic

import (
	"math"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/histogram"
	"repro/internal/query"
)

func dom() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 2},
		domain.Attribute{Name: "b", Card: 4},
	)
}

// train applies n purposeful updates for q.
func train(h *histogram.Histogram, q *query.Query, n int) {
	for i := 0; i < n; i++ {
		h.Update(q, 0.01)
	}
}

func TestAdaptivePerBinReadiness(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	heur := NewAdaptivePerBin(3, 1)
	q := query.MustNew(d, map[int][]int{0: {0}})
	if heur.IsReady(h, q) {
		t.Fatal("untrained histogram declared ready")
	}
	train(h, q, 3)
	if !heur.IsReady(h, q) {
		t.Fatal("histogram with C0 updates per bin not ready")
	}
	// A query touching one cold bin must not be ready.
	wide := query.MustNew(d, nil)
	if heur.IsReady(h, wide) {
		t.Fatal("query over cold bins declared ready")
	}
}

func TestAdaptivePerBinPenalizeRaisesOnlyLeastUpdated(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	heur := NewAdaptivePerBin(1, 2)
	hot := query.MustNew(d, map[int][]int{0: {0}, 1: {0}})  // one bin
	cold := query.MustNew(d, map[int][]int{0: {0}, 1: {1}}) // another
	train(h, hot, 5)
	train(h, cold, 1)
	both := query.MustNew(d, map[int][]int{0: {0}, 1: {0, 1}})
	heur.Penalize(h, both)
	hotBin := d.Encode([]int{0, 0})
	coldBin := d.Encode([]int{0, 1})
	if heur.Threshold(hotBin) != 1 {
		t.Fatalf("hot bin threshold = %g, want unchanged 1", heur.Threshold(hotBin))
	}
	if heur.Threshold(coldBin) != 3 {
		t.Fatalf("cold bin threshold = %g, want 1+S0 = 3", heur.Threshold(coldBin))
	}
}

func TestAdaptivePerBinBecomesConservative(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	heur := NewAdaptivePerBin(1, 1)
	q := query.MustNew(d, map[int][]int{0: {0}})
	train(h, q, 1)
	if !heur.IsReady(h, q) {
		t.Fatal("should be ready at C0=1 with 1 update")
	}
	heur.Penalize(h, q) // thresholds of support bins → 2
	if heur.IsReady(h, q) {
		t.Fatal("still ready after penalty")
	}
	train(h, q, 1)
	if !heur.IsReady(h, q) {
		t.Fatal("not ready after reaching raised threshold")
	}
}

func TestAdaptivePerBinCloneState(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	heur := NewAdaptivePerBin(1, 5)
	q := query.MustNew(d, map[int][]int{0: {0}})
	train(h, q, 1)
	heur.Penalize(h, q)
	clone := heur.CloneState().(*AdaptivePerBin)
	bin := d.Encode([]int{0, 0})
	if clone.Threshold(bin) != heur.Threshold(bin) {
		t.Fatal("clone lost thresholds")
	}
	clone.Penalize(h, q)
	if clone.Threshold(bin) == heur.Threshold(bin) {
		t.Fatal("clone shares threshold storage")
	}
	// Cloning an untouched heuristic keeps lazy thresholds.
	fresh := NewAdaptivePerBin(2, 1).CloneState().(*AdaptivePerBin)
	if fresh.Threshold(0) != 2 {
		t.Fatal("fresh clone lost C0")
	}
}

func TestAdaptivePerBinAverageState(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	a := NewAdaptivePerBin(1, 2)
	b := NewAdaptivePerBin(1, 2)
	q := query.MustNew(d, map[int][]int{0: {0}})
	train(h, q, 1)
	a.Penalize(h, q) // support bins → 3
	dst := NewAdaptivePerBin(1, 2)
	if err := dst.AverageState([]Heuristic{a, b}); err != nil {
		t.Fatal(err)
	}
	bin := d.Encode([]int{0, 0})
	if dst.Threshold(bin) != 2 { // (3+1)/2
		t.Fatalf("averaged threshold = %g, want 2", dst.Threshold(bin))
	}
	if err := dst.AverageState(nil); err == nil {
		t.Error("AverageState of nothing succeeded")
	}
	if err := dst.AverageState([]Heuristic{NewStaticGlobal(1)}); err == nil {
		t.Error("AverageState across designs succeeded")
	}
	// All-untouched parents: thresholds stay at C0.
	dst2 := NewAdaptivePerBin(7, 1)
	if err := dst2.AverageState([]Heuristic{NewAdaptivePerBin(1, 1), NewAdaptivePerBin(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if dst2.Threshold(3) != 7 {
		t.Fatalf("untouched average threshold = %g, want C0=7", dst2.Threshold(3))
	}
}

func TestAdaptivePerBinPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative C0 did not panic")
			}
		}()
		NewAdaptivePerBin(-1, 1)
	}()
	// Histogram size change mid-stream is a programming error. Readiness
	// probes never materialize the thresholds (nil means all-C0), so the
	// materializing penalty path seeds the size here.
	heur := NewAdaptivePerBin(1, 1)
	d := dom()
	h := histogram.NewUniform(d.Size())
	q := query.MustNew(d, nil)
	heur.IsReady(h, q)
	heur.Penalize(h, q)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("size change did not panic")
			}
		}()
		heur.ensure(4)
	}()
}

func TestStaticPerBin(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	heur := NewStaticPerBin(2)
	q := query.MustNew(d, map[int][]int{0: {1}})
	if heur.IsReady(h, q) {
		t.Fatal("cold static-per-bin ready")
	}
	train(h, q, 2)
	if !heur.IsReady(h, q) {
		t.Fatal("trained static-per-bin not ready")
	}
	heur.Penalize(h, q) // no-op
	if !heur.IsReady(h, q) {
		t.Fatal("static design became adaptive")
	}
}

func TestGlobalDesigns(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	q1 := query.MustNew(d, map[int][]int{0: {0}})
	q2 := query.MustNew(d, map[int][]int{0: {1}})

	ag := NewAdaptiveGlobal(2, 3)
	if ag.IsReady(h, q2) {
		t.Fatal("cold adaptive-global ready")
	}
	train(h, q1, 2) // global count reaches 2, even though q2's bins are cold
	if !ag.IsReady(h, q2) {
		t.Fatal("adaptive-global ignores per-bin state by design; should be ready")
	}
	ag.Penalize(h, q2) // threshold → 5
	if ag.IsReady(h, q2) {
		t.Fatal("adaptive-global did not adapt")
	}

	sg := NewStaticGlobal(2)
	if !sg.IsReady(h, q2) {
		t.Fatal("static-global with enough updates not ready")
	}
	sg.Penalize(h, q2)
	if !sg.IsReady(h, q2) {
		t.Fatal("static-global adapted")
	}
}

func TestTrivialDesigns(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	q := query.MustNew(d, nil)
	if !(AlwaysReady{}).IsReady(h, q) {
		t.Fatal("AlwaysReady not ready")
	}
	AlwaysReady{}.Penalize(h, q)
}

func TestCutoff(t *testing.T) {
	d := dom()
	h := histogram.NewUniform(d.Size())
	q := query.MustNew(d, map[int][]int{0: {0}})
	c := NewCutoff(NewStaticGlobal(math.Inf(1)), 3)
	for i := 0; i < 3; i++ {
		if c.IsReady(h, q) {
			t.Fatalf("cutoff fired early at %d", i)
		}
	}
	if !c.IsReady(h, q) {
		t.Fatal("cutoff did not force readiness after k bypasses")
	}
	if c.Bypassed() != 3 {
		t.Fatalf("Bypassed = %d", c.Bypassed())
	}
	// k ≤ 0 disables the cutoff.
	c2 := NewCutoff(NewStaticGlobal(math.Inf(1)), 0)
	for i := 0; i < 10; i++ {
		if c2.IsReady(h, q) {
			t.Fatal("disabled cutoff forced readiness")
		}
	}
	// Penalize forwards to the inner design.
	inner := NewAdaptiveGlobal(0, 1)
	c3 := NewCutoff(inner, 5)
	c3.Penalize(h, q)
	if inner.IsReady(h, q) {
		t.Fatal("penalty did not reach inner heuristic")
	}
}

func TestNames(t *testing.T) {
	names := []string{
		NewAdaptivePerBin(1, 2).Name(),
		NewStaticPerBin(3).Name(),
		NewAdaptiveGlobal(1, 2).Name(),
		NewStaticGlobal(4).Name(),
		AlwaysReady{}.Name(),
		NewCutoff(AlwaysReady{}, 7).Name(),
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
	if !strings.Contains(names[5], "k=7") {
		t.Fatalf("cutoff name %q missing parameter", names[5])
	}
}
