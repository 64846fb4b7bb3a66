// Allocation regression tests for the hot paths the vectorized engine and
// the entry codec are meant to keep clean. Guarded out of race builds:
// race instrumentation adds its own allocations, which would make the
// budgets meaningless there.

//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/query"
)

// TestAnswerExactHitZeroAllocs pins the exact-hit path — plan, store
// probe with the precomputed window key, counter bumps — at zero
// allocations per query, in both the single-PMW and tree sessions. A
// tree session probes a windowless statement under its planned window's
// key, which read one allocation while that key was rendered into a
// fresh string. -exp=misspath enforces the same budget at benchmark
// scale; this is the unit-sized tripwire.
func TestAnswerExactHitZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name     string
		mode     Mode
		windowed bool
	}{
		{"non-partitioned", NonPartitioned, false},
		{"partitioned", Partitioned, true},
		{"partitioned-windowless", Partitioned, false},
		{"streaming-windowless", Streaming, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dom, ds := buildDS(t, 4)
			if c.mode == NonPartitioned {
				_, ds = buildDS(t, 1)
			}
			s, err := NewSession(defaultCfg(c.mode), ds)
			if err != nil {
				t.Fatal(err)
			}
			q := query.MustNew(dom, map[int][]int{1: {0, 2}})
			if c.windowed {
				q = q.WithWindow(0, ds.Partitions()-1)
			}
			if _, err := s.Answer(q); err != nil {
				t.Fatal(err) // the one paid execution that fills the cache
			}
			if allocs := testing.AllocsPerRun(200, func() {
				ans, err := s.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				if ans.Source != SourceExactHit {
					t.Fatalf("expected an exact hit, got %v", ans.Source)
				}
			}); allocs != 0 {
				t.Fatalf("exact-hit path allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// TestFlightZeroAllocs pins a flight at zero allocations once its group
// has a record to recycle: the identity is the query's own key, not a
// "key@vN" string (which cost one allocation per miss), and the record
// with its latch goes back to the group, not to the GC.
func TestFlightZeroAllocs(t *testing.T) {
	dom, ds := buildDS(t, 4)
	s, err := NewSession(defaultCfg(Partitioned), ds)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{1: {0}}).WithWindow(0, 3)
	pl, err := s.planner.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		ans, shared, err := s.flights.do(flightOf(pl), func() (Answer, error) {
			return Answer{Value: 0.5}, nil
		})
		if err != nil || shared || ans.Value != 0.5 {
			t.Fatalf("flight = %+v, %v, %v", ans, shared, err)
		}
	}); allocs != 0 {
		t.Fatalf("a flight allocates %.1f/op, want 0", allocs)
	}
}

// TestColdBatchAllocBudget pins what one cold statement allocates on its
// way through AnswerBatch — plan, probe miss, flight, tree execution and
// its payments, one store append — on freshly built queries, so each
// predicate's support is resolved inside the measurement as it is for a
// freshly parsed statement. The batch runs on the caller alone at any
// GOMAXPROCS, so the count repeats exactly. The fill itself must
// stay one arena append: a second copy of each fill, or a per-predicate
// memo beside the query's own, shows here first.
func TestColdBatchAllocBudget(t *testing.T) {
	ds, batches := coldBatches(t)
	s := coldSession(t, ds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stmts := runCold(t, s, batches)
	runtime.ReadMemStats(&after)
	// Reads 1.15 (1.72 while AnswerBatch handed its misses to AnswerPlans,
	// which merged equal ones in a plan slice, a slot slice and buffers of
	// its own per call; 2.15 while AnswerBatch grouped its statements by
	// pointer in a map and an arena of its own, beside AnswerPlans', and ran
	// an advisory admission round, and 2.22 before that; 2.28 while
	// AnswerBatch's BatchBuffers went to the heap, shared with helper
	// goroutines that executed misses beside the caller; 2.36 while the helpers' closure and counters were objects of
	// their own, not fields of one BatchBuffers; 7.36
	// while a flight rendered a "key@vN" string and
	// allocated its record and channel, a fill boxed its entry, the tree's
	// contiguous-subset step copied and reflect-sorted, and a support
	// resolved into a fresh Support; 9.54 before that; 13.72 while the
	// tree probed its node cache before any entry was there, a key string
	// per split node; 17.89 while it stored node releases no probe could
	// accept; 23.43 while every fill was also copied into a decoded map in
	// front of the store and the dataset kept a predicate-mask memo).
	const ceiling = 1.2
	perStmt := float64(after.Mallocs-before.Mallocs) / float64(stmts)
	t.Logf("%.3f allocs per cold statement over %d", perStmt, stmts)
	if perStmt > ceiling {
		t.Fatalf("cold statement allocates %.2f, budget %.2f", perStmt, ceiling)
	}
}
