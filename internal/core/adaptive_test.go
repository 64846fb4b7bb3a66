package core

import (
	"math"
	"testing"

	"repro/internal/query"
)

// TestAdaptiveAnalystDrillDown exercises the online setting Turbo targets
// (§3.2): the analyst's next query depends on previous answers — a
// drill-down from marginals to the heaviest cell — which offline
// mechanisms cannot serve. Every released answer along the adaptive path
// must stay (α, β)-accurate and total consumption bounded.
func TestAdaptiveAnalystDrillDown(t *testing.T) {
	dom, ds := buildDS(t, 1)
	s, err := NewSession(defaultCfg(NonPartitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	check := func(q *query.Query) float64 {
		t.Helper()
		a, err := s.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := ds.TrueFraction(q, 0, 0)
		if math.Abs(a.Value-truth) > 0.05 {
			t.Fatalf("%s: answer %g vs truth %g", q, a.Value, truth)
		}
		return a.Value
	}

	// Step 1: marginal over the outcome attribute; pick the bigger side.
	fractions := make([]float64, 2)
	for p := 0; p < 2; p++ {
		fractions[p] = check(query.MustNew(dom, map[int][]int{0: {p}}))
	}
	heavyP := 0
	if fractions[1] > fractions[0] {
		heavyP = 1
	}

	// Step 2 (depends on step 1): age distribution within the heavy side.
	best, bestA := -1.0, 0
	for a := 0; a < 4; a++ {
		f := check(query.MustNew(dom, map[int][]int{0: {heavyP}, 1: {a}}))
		if f > best {
			best, bestA = f, a
		}
	}

	// Step 3 (depends on step 2): the two heaviest brackets combined —
	// a fresh predicate the system has never seen, answered accurately
	// thanks to the histogram trained by steps 1-2.
	second := (bestA + 1) % 4
	combined := check(query.MustNew(dom, map[int][]int{0: {heavyP}, 1: {bestA, second}}))
	if combined < best-0.05 {
		t.Fatalf("combined bracket fraction %g below its heaviest member %g", combined, best)
	}

	if s.AverageSpent() >= defaultCfg(NonPartitioned).EpsilonGlobal {
		t.Fatal("drill-down exhausted the global budget")
	}
}

// TestAdaptiveStreamFollowsData exercises adaptivity in the streaming
// setting: the analyst watches the newest partition's positivity and
// narrows the window when it moves — queries are a function of released
// history while partitions keep arriving.
func TestAdaptiveStreamFollowsData(t *testing.T) {
	dom, ds := buildDS(t, 2)
	cfg := defaultCfg(Streaming)
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	posQ := query.MustNew(dom, map[int][]int{0: {1}})

	prev := -1.0
	for week := 2; week < 6; week++ {
		idx, err := s.AppendPartition()
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 4; a++ {
			// Positivity rises over time.
			_ = addCount(ds, idx, dom.Encode([]int{1, a}), 1000+100*a+300*week)
			_ = addCount(ds, idx, dom.Encode([]int{0, a}), 4000-150*a)
		}
		latest, err := s.Answer(posQ.WithWindow(idx, idx))
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := ds.TrueFraction(posQ, idx, idx)
		if math.Abs(latest.Value-truth) > 0.05 {
			t.Fatalf("week %d: %g vs %g", idx, latest.Value, truth)
		}
		// Adaptive choice: if positivity moved, query the longer trend
		// window, otherwise just the recent pair.
		var trend *query.Query
		if prev >= 0 && latest.Value-prev > 0.01 {
			trend = posQ.WithWindow(0, idx)
		} else {
			trend = posQ.WithWindow(idx-1, idx)
		}
		a, err := s.Answer(trend)
		if err != nil {
			t.Fatal(err)
		}
		st, en, _ := trend.Window()
		truthT, _ := ds.TrueFraction(posQ, st, en)
		if math.Abs(a.Value-truthT) > 0.05 {
			t.Fatalf("trend [%d,%d]: %g vs %g", st, en, a.Value, truthT)
		}
		prev = latest.Value
	}
	if s.Accountant().MaxSpent() > cfg.EpsilonGlobal {
		t.Fatal("guarantee exceeded")
	}
}
