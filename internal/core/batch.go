// The batch plane: AnswerBatch runs a whole slice of queries through
// the Fig. 1 pipeline with the per-query round-trips amortized across
// the batch.
//
// One planner pass classifies the entire batch and groups members by
// flight identity (predicate + window + data version), so identical
// queries are deduplicated before any lock is taken: the group executes
// once and the answer fans out to every member. Distinct groups then
// share the expensive stages:
//
//   - one exact-cache probe per distinct group (not per query);
//   - ONE admission round for all cache-missed groups
//     (accountant/batch.go), with per-group verdicts — an over-budget
//     query 429s on its own without dooming batchmates, and the batch
//     pays one accountant-lock acquisition where singleton traffic
//     pays one per query;
//   - per-group execution through the same single-flight group as the
//     singleton path, so batch executions still dedup against concurrent
//     singleton traffic and fill the exact cache before their flight key
//     is released; the groups run on the caller plus at most
//     GOMAXPROCS-1 helpers.
//
// Admission verdicts are advisory (see accountant/batch.go): the
// execution-time payments remain the enforcement point, so a verdict
// that goes stale between admission and execution fails safe. The
// batch plane's one semantic difference from the singleton path is
// deliberate: a query over an exhausted window is refused at admission
// even though its free R1 path might still have answered.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/accountant"
	"repro/internal/query"
)

// BatchResult is one query's outcome within AnswerBatch: exactly one of
// Answer and Err is meaningful, matching Answer's return pair.
type BatchResult struct {
	Answer Answer
	Err    error
}

// batchGroup collects the batch members sharing one flight identity;
// the group resolves once — to a cache hit, an admission refusal, or
// one execution — and the outcome fans out to every member in a single
// final pass. n is the member count; mergedInto redirects a group that
// the flight-identity merge folded into an earlier equal group.
type batchGroup struct {
	pl         Plan
	n          int
	ans        Answer
	err        error
	mergedInto *batchGroup
}

// batchMiss is a group the exact cache could not answer, beside the
// flight identity it merges, executes and fills under — rendered once,
// and kept out of batchGroup so an all-hit batch's arena carries no key
// slots (sixteen 128-byte groups are exactly one 2 KiB allocation class).
type batchMiss struct {
	g   *batchGroup
	key string
}

// AnswerBatch answers a batch of linear queries, returning one ordered
// result per query. Identical queries (same predicate, window, and data
// version) execute and pay at most once, and all cache-missed groups are
// admitted in one accountant round. Per-query failures (planning errors,
// ErrBudgetExhausted) land in that query's slot.
func (s *Session) AnswerBatch(qs []*query.Query) []BatchResult {
	out := make([]BatchResult, len(qs))
	if len(qs) == 0 {
		return out
	}

	// Plan every member once and group in first-appearance order, under
	// a single dataset metadata snapshot (one lock acquisition for the
	// whole batch). The memo is keyed by query pointer — batch producers
	// (the SQL frontend, the bench harness) naturally resubmit the same
	// *query.Query for repeats, and a pointer hit skips replanning
	// entirely. Equal queries behind distinct pointers still merge, but
	// only if they miss the exact cache (below), so the hit path never
	// builds a flight key. Groups live in one flat arena (the group
	// count is bounded by len(qs), so appends never reallocate and group
	// pointers stay stable); members hold only a pointer to their group,
	// and the final pass below fans each group's outcome back out.
	snap := s.ds.MetaSnapshot()
	byPtr := make(map[*query.Query]*batchGroup, len(qs))
	arena := make([]batchGroup, 0, len(qs))
	assign := make([]*batchGroup, len(qs))
	for i, q := range qs {
		g := byPtr[q]
		if g == nil {
			pl, err := s.planner.PlanWith(&snap, q)
			if err != nil {
				out[i].Err = err
				continue
			}
			arena = append(arena, batchGroup{pl: pl})
			g = &arena[len(arena)-1]
			byPtr[q] = g
		}
		g.n++
		assign[i] = g
	}

	// One exact-cache probe per distinct group. Hit groups resolve on
	// the spot; misses collect for the shared admission round.
	var misses []batchMiss
	for i := range arena {
		g := &arena[i]
		if e, ok := s.exact.Get(g.pl.Query, g.pl.Version); ok {
			g.ans = Answer{Value: e.Value, Source: SourceExactHit,
				Start: g.pl.Start, End: g.pl.End, Rows: g.pl.Rows}
			s.recordN(SourceExactHit, g.n)
			continue
		}
		misses = append(misses, batchMiss{g: g, key: flightKey(g.pl)})
	}

	if len(misses) > 0 {
		// Merge equal-but-distinct-pointer miss groups by flight identity
		// (predicate + window + data version) so they admit and execute
		// once; a folded group redirects its members to the
		// surviving one.
		if len(misses) > 1 {
			byKey := make(map[string]*batchGroup, len(misses))
			merged := misses[:0]
			for _, m := range misses {
				if into := byKey[m.key]; into != nil {
					into.n += m.g.n
					m.g.mergedInto = into
					continue
				}
				byKey[m.key] = m.g
				merged = append(merged, m)
			}
			misses = merged
		}

		// One admission round for every missed group; a refused group
		// resolves to its verdict without executing.
		verdicts := s.admitBatch(misses)
		run := misses[:0]
		for i, m := range misses {
			if verdicts[i] != nil {
				s.noteErr(verdicts[i])
				m.g.err = verdicts[i]
				continue
			}
			run = append(run, m)
		}
		if len(run) > 0 {
			// Execute each admitted group once, through the same
			// single-flight path as Answer. Groups are distinct flight
			// keys, so they never wait on each other; the caller and at
			// most GOMAXPROCS-1 helpers pull them off a shared index —
			// a spawn per group would cost a wake-up each with no core
			// to run on.
			var next atomic.Int64
			work := func() {
				for i := next.Add(1) - 1; int(i) < len(run); i = next.Add(1) - 1 {
					m := run[i]
					ans, shared, err := s.execute(m.g.pl, m.key)
					s.resolveExecuted(m.g, ans, shared, err)
				}
			}
			var wg sync.WaitGroup
			for h := min(runtime.GOMAXPROCS(0), len(run)) - 1; h > 0; h-- {
				wg.Add(1)
				go func() {
					defer wg.Done()
					work()
				}()
			}
			work()
			wg.Wait()
		}
	}

	// Fan every group's outcome out to its members in one sequential
	// pass (slots with planning errors already carry them and have no
	// group).
	for i, g := range assign {
		if g == nil {
			continue
		}
		if g.mergedInto != nil {
			g = g.mergedInto
		}
		if g.err != nil {
			out[i].Err = g.err
		} else {
			out[i].Answer = g.ans
		}
	}
	return out
}

// admitBatch runs one admission round over the cache-missed groups
// against the session's block, returning one advisory verdict per group.
// (The non-partitioned PMW pays the full range whatever the query's
// window, so every partition carries the same spend and the plan's
// window gives the same verdict the full range would.)
func (s *Session) admitBatch(misses []batchMiss) []error {
	wins := make([]accountant.PartitionRange, len(misses))
	for i, m := range misses {
		wins[i] = accountant.PartitionRange{Start: m.g.pl.Start, End: m.g.pl.End}
	}
	return s.block.AdmitBatch(wins)
}

// resolveExecuted stores one group execution's outcome on the group and
// accounts for it. The first member carries the execution itself
// (deduplicated only if the flight was shared with a concurrent
// caller); every further member is an intra-batch deduplication. Safe
// to call concurrently across distinct groups — the counters are
// atomics and each goroutine owns its group.
func (s *Session) resolveExecuted(g *batchGroup, ans Answer, shared bool, err error) {
	if err != nil {
		s.noteErr(err)
		g.err = err
		return
	}
	ans.Start, ans.End, ans.Rows = g.pl.Start, g.pl.End, g.pl.Rows
	g.ans = ans
	dedup := g.n - 1
	if shared {
		dedup++
	}
	if dedup > 0 {
		s.deduped.Add(int64(dedup))
	}
	s.recordN(ans.Source, g.n)
}

// AdmissionLockAcquisitions returns the cumulative admission-relevant
// lock acquisitions on the session's accountant — the numerator of the
// batch experiment's "admission lock acquisitions per query" metric
// (accountant/batch.go documents what counts).
func (s *Session) AdmissionLockAcquisitions() uint64 { return s.block.LockAcquisitions() }
