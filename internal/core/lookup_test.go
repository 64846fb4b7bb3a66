package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/query"
)

// TestLookupThenAnswerPlanIsAnswer: a statement probed by key, and built
// and answered only on a miss, reads as Answer does on a twin session —
// the same values, sources, payments and cache counters, request by
// request, repeats and a window past the store included.
func TestLookupThenAnswerPlanIsAnswer(t *testing.T) {
	for _, mode := range []Mode{NonPartitioned, Partitioned} {
		t.Run(mode.String(), func(t *testing.T) {
			dom, ds := buildDS(t, 4)
			_, twinDS := buildDS(t, 4)
			byQuery, err := NewSession(defaultCfg(mode), ds)
			if err != nil {
				t.Fatal(err)
			}
			byKey, err := NewSession(defaultCfg(mode), twinDS)
			if err != nil {
				t.Fatal(err)
			}
			var qs []*query.Query
			for a := range 4 {
				q := query.MustNew(dom, map[int][]int{1: {a}})
				qs = append(qs, q, q.WithWindow(a%2, 2), q.WithWindow(0, 3))
			}
			qs = append(qs, qs...)
			qs = append(qs, qs[0].WithWindow(1, 4)) // past the store: a plan error
			for i, q := range qs {
				want, wantErr := byQuery.Answer(q)
				ans, pl, hit, err := byKey.Lookup(q.KeyWithWindow())
				if err == nil && !hit {
					pl.Query = q
					ans, err = byKey.AnswerPlan(pl)
				}
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) || ans != want {
					t.Fatalf("query %d (%s): key first %+v %v, Answer %+v %v", i, q, ans, err, want, wantErr)
				}
			}
			h1, m1 := byQuery.ExactCache().Stats()
			h2, m2 := byKey.ExactCache().Stats()
			if h1 != h2 || m1 != m2 || byQuery.StoreStats() != byKey.StoreStats() || byQuery.AverageSpent() != byKey.AverageSpent() {
				t.Fatalf("counters differ: exact %d/%d vs %d/%d, store %+v vs %+v", h1, m1, h2, m2, byQuery.StoreStats(), byKey.StoreStats())
			}
		})
	}
}

// TestAnswerPlanRefusesAnotherQuery: a plan answers only the query it was
// planned for, so a fill never lands under another window's key.
func TestAnswerPlanRefusesAnotherQuery(t *testing.T) {
	dom, ds := buildDS(t, 4)
	s, err := NewSession(defaultCfg(Partitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	_, pl, hit, err := s.Lookup(q.WithWindow(0, 1).KeyWithWindow())
	if err != nil || hit {
		t.Fatalf("Lookup: hit %v, %v", hit, err)
	}
	pl.Query = q.WithWindow(1, 2)
	if _, err := s.AnswerPlan(pl); err == nil || !strings.Contains(err.Error(), "is not its plan's") {
		t.Fatalf("AnswerPlan of another window: %v", err)
	}
	if res := s.AnswerPlans([]Plan{{Start: 0, End: 1}}, new(BatchBuffers)); res[0].Err == nil {
		t.Fatal("AnswerPlans of a plan with no query answered")
	}
	if s.AverageSpent() != 0 {
		t.Fatalf("refusals spent %v", s.AverageSpent())
	}
}

// TestAnswerPlansIsAnswerBatch: the misses of a batch, handed over as
// Lookup's plans, merge and execute as AnswerBatch would have them:
// equal statements pay once and count as deduplicated. GOMAXPROCS 1 runs
// both batches' executions on the caller, in order, so their noise draws
// line up.
func TestAnswerPlansIsAnswerBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dom, ds := buildDS(t, 4)
	_, twinDS := buildDS(t, 4)
	batch, err := NewSession(defaultCfg(Partitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := NewSession(defaultCfg(Partitioned), twinDS)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for a := range 4 {
		qs = append(qs, query.MustNew(dom, map[int][]int{1: {a}}).WithWindow(0, 3))
	}
	qs = append(qs, query.MustNew(dom, map[int][]int{1: {2}}).WithWindow(0, 3)) // equal to qs[2], another pointer
	want := batch.AnswerBatch(qs)
	var pls []Plan
	for _, q := range qs {
		_, pl, hit, err := plans.Lookup(q.KeyWithWindow())
		if err != nil || hit {
			t.Fatalf("Lookup: hit %v, %v", hit, err)
		}
		pl.Query = q
		pls = append(pls, pl)
	}
	got := plans.AnswerPlans(pls, new(BatchBuffers))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("statement %d: %+v, AnswerBatch %+v", i, got[i], want[i])
		}
	}
	if batch.Deduped() != 1 || plans.Deduped() != 1 || batch.AverageSpent() != plans.AverageSpent() {
		t.Fatalf("deduped %d vs %d, spent %v vs %v", batch.Deduped(), plans.Deduped(), batch.AverageSpent(), plans.AverageSpent())
	}
}
