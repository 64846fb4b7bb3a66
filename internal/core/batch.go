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
//     is released; the groups run one after another on the caller,
//     whose connection is the server's unit of parallelism.
//
// AnswerPlans enters the same stages after the probe, for the misses of
// a batch whose statements were probed by key (Lookup).
//
// Admission verdicts are advisory (see accountant/batch.go): the
// execution-time payments remain the enforcement point, so a verdict
// that goes stale between admission and execution fails safe. The
// batch plane's one semantic difference from the singleton path is
// deliberate: a query over an exhausted window is refused at admission
// even though its free R1 path might still have answered.
package core

import (
	"slices"

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
// flight identity it merges, executes and fills under — kept out of
// batchGroup so an all-hit batch's arena carries no identity slots
// (sixteen 128-byte groups are exactly one 2 KiB allocation class).
type batchMiss struct {
	g  *batchGroup
	id flightID
}

// BatchBuffers is what AnswerPlans answers in: the results it returns,
// the groups, member assignments and misses it resolves, the map it
// merges misses by, and the admission round's windows and verdicts. A
// caller that keeps one and hands it to every call reuses their arrays,
// so a batch allocates nothing once they have grown. The zero value is
// ready; one BatchBuffers serves one call at a time.
type BatchBuffers struct {
	out      []BatchResult
	groups   []batchGroup
	assign   []*batchGroup
	misses   []batchMiss
	byID     map[flightID]*batchGroup
	wins     []accountant.PartitionRange
	verdicts []error
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

	// Plan every member once and group in first-appearance order. The
	// memo is keyed by query pointer — batch producers
	// (the SQL frontend, the bench harness) naturally resubmit the same
	// *query.Query for repeats, and a pointer hit skips replanning
	// entirely. Equal queries behind distinct pointers still merge, but
	// only if they miss the exact cache (below), so the hit path never
	// merges by flight identity. Groups live in one flat arena (the group
	// count is bounded by len(qs), so appends never reallocate and group
	// pointers stay stable); members hold only a pointer to their group,
	// and the final pass below fans each group's outcome back out.
	byPtr := make(map[*query.Query]*batchGroup, len(qs))
	arena := make([]batchGroup, 0, len(qs))
	assign := make([]*batchGroup, len(qs))
	for i, q := range qs {
		g := byPtr[q]
		if g == nil {
			pl, err := s.planner.Plan(q)
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
			s.record(SourceExactHit, g.n)
			continue
		}
		misses = append(misses, batchMiss{g: g, id: flightOf(g.pl)})
	}

	if len(misses) > 0 {
		s.answerMisses(&BatchBuffers{misses: misses})
	}
	fanOut(out, assign)
	return out
}

// AnswerPlans answers the statements of one batch that Lookup missed: pls
// are Lookup's plans, each with its built query in Query. They go through
// AnswerBatch's stages after the probe — equal statements merged, one
// admission round, one execution per flight — so a batch whose hits were
// served by key answers its misses exactly as AnswerBatch would. It
// answers in buf, and the results it returns are buf's: they, like the
// plans' queries, are the caller's again once it returns, and the next
// call on buf overwrites them.
func (s *Session) AnswerPlans(pls []Plan, buf *BatchBuffers) []BatchResult {
	n := len(pls)
	buf.out = reuse(buf.out, n)
	buf.groups = reuse(buf.groups, n)
	buf.assign = reuse(buf.assign, n)
	buf.misses = buf.misses[:0]
	for i, pl := range pls {
		if err := s.planned(pl); err != nil {
			buf.out[i].Err = err
			continue
		}
		g := &buf.groups[i]
		*g = batchGroup{pl: pl, n: 1}
		buf.assign[i] = g
		buf.misses = append(buf.misses, batchMiss{g: g, id: flightOf(pl)})
	}
	s.answerMisses(buf)
	fanOut(buf.out, buf.assign)
	return buf.out
}

// reuse returns buf's array holding n zero elements, grown if it must.
func reuse[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// answerMisses resolves buf.misses, the groups the exact cache missed:
// equal ones merged by flight identity, one admission round, and one
// execution each, in order on the caller.
func (s *Session) answerMisses(buf *BatchBuffers) {
	misses := buf.misses
	if len(misses) == 0 {
		return
	}
	// Merge equal-but-distinct-pointer miss groups by flight identity
	// (predicate + window + data version) so they admit and execute
	// once; a folded group redirects its members to the surviving one.
	if len(misses) > 1 {
		if buf.byID == nil {
			buf.byID = make(map[flightID]*batchGroup, len(misses))
		}
		merged := misses[:0]
		for _, m := range misses {
			if into := buf.byID[m.id]; into != nil {
				into.n += m.g.n
				m.g.mergedInto = into
				continue
			}
			buf.byID[m.id] = m.g
			merged = append(merged, m)
		}
		clear(buf.byID) // its keys view the callers' queries
		misses = merged
	}

	// One admission round for every missed group; a refused group
	// resolves to its verdict without executing.
	buf.wins = slices.Grow(buf.wins[:0], len(misses))
	for _, m := range misses {
		buf.wins = append(buf.wins, accountant.PartitionRange{Start: m.g.pl.Start, End: m.g.pl.End})
	}
	// (The non-partitioned PMW pays the full range whatever the query's
	// window, so every partition carries the same spend and the plan's
	// window gives the same verdict the full range would.)
	buf.verdicts = s.block.AdmitBatch(buf.verdicts, buf.wins)
	for i, m := range misses {
		if m.g.err = buf.verdicts[i]; m.g.err != nil {
			continue
		}
		// Execute each admitted group once, in order on the caller,
		// through the same single-flight path as Answer. Groups are
		// distinct flights, so none waits on another; the server's
		// parallelism is its connections, one goroutine each, and a
		// helper here would only add a wake-up and lock hand-offs.
		m.g.ans, m.g.err = s.execute(m.g.pl, m.id, m.g.n)
	}
	clear(buf.verdicts)
}

// fanOut copies every group's outcome to its members in one sequential
// pass (slots with planning errors already carry them and have no
// group).
func fanOut(out []BatchResult, assign []*batchGroup) {
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
}

// AdmissionLockAcquisitions returns the cumulative admission-relevant
// lock acquisitions on the session's accountant — the numerator of the
// batch experiment's "admission lock acquisitions per query" metric
// (accountant/batch.go documents what counts).
func (s *Session) AdmissionLockAcquisitions() uint64 { return s.block.LockAcquisitions() }
