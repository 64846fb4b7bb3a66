// The batch plane: AnswerBatch and AnswerPlans answer a whole slice of
// queries through the same stages as a statement alone (Lookup, then
// the flight, execution and fill of AnswerPlan), so a statement gets the
// same answer, at the same price, whichever entry point carries it.
//
// What a batch shares is the work its equal statements would repeat:
// the misses are grouped by flight identity (predicate + window + data
// version), so identical queries execute and pay once and the answer
// fans out to every member. Each group goes through the same
// single-flight group as the singleton path, so batch executions still
// dedup against concurrent singleton traffic and fill the exact cache
// before their flight key is released; the groups run one after another
// on the caller, whose connection is the server's unit of parallelism.
// The payments inside each execution are the one point where the budget
// is enforced: a group whose window is spent is refused there, in its own
// slot, without dooming its batchmates.
package core

import (
	"slices"

	"repro/internal/query"
)

// BatchResult is one query's outcome within AnswerBatch: exactly one of
// Answer and Err is meaningful, matching Answer's return pair.
type BatchResult struct {
	Answer Answer
	Err    error
}

// batchGroup collects the batch members sharing one flight identity; the
// group executes once and its outcome fans out to every member in a
// single final pass. n is the member count, 0 for a slot whose statement
// joined an earlier group or whose plan was refused.
type batchGroup struct {
	pl  Plan
	n   int
	ans Answer
	err error
}

// BatchBuffers is what AnswerPlans answers in: the results it returns,
// the groups and member assignments it resolves, and the map it merges
// equal statements by. A caller that keeps one and hands it to every call
// reuses their arrays, so a batch allocates nothing once they have grown.
// The zero value is ready; one BatchBuffers serves one call at a time.
type BatchBuffers struct {
	out    []BatchResult
	groups []batchGroup
	assign []*batchGroup
	byID   map[flightID]*batchGroup
}

// AnswerBatch answers a batch of linear queries, returning one ordered
// result per query. Each query is looked up by its key as Answer does,
// and the misses are answered in one AnswerPlans call, so identical
// queries (same predicate, window, and data version) execute and pay at
// most once. Per-query failures (planning errors, ErrBudgetExhausted)
// land in that query's slot.
func (s *Session) AnswerBatch(qs []*query.Query) []BatchResult {
	out := make([]BatchResult, len(qs))
	var (
		pls   []Plan
		slots []int
	)
	for i, q := range qs {
		if out[i].Err = s.planner.check(q); out[i].Err != nil {
			continue
		}
		ans, pl, hit, err := s.Lookup(q.KeyWithWindow())
		if err != nil || hit {
			out[i] = BatchResult{Answer: ans, Err: err}
			continue
		}
		if pls == nil {
			pls, slots = make([]Plan, 0, len(qs)-i), make([]int, 0, len(qs)-i)
		}
		pl.Query = q
		pls, slots = append(pls, pl), append(slots, i)
	}
	if len(pls) > 0 {
		for k, r := range s.AnswerPlans(pls, new(BatchBuffers)) {
			out[slots[k]] = r
		}
	}
	return out
}

// AnswerPlans answers the statements of one batch that Lookup missed: pls
// are Lookup's plans, each with its built query in Query. Equal
// statements merge into one group, and each group runs AnswerPlan's
// flight, execution and fill once, in first-appearance order. It answers
// in buf, and the results it returns are buf's: they, like the plans'
// queries, are the caller's again once it returns, and the next call on
// buf overwrites them.
func (s *Session) AnswerPlans(pls []Plan, buf *BatchBuffers) []BatchResult {
	n := len(pls)
	buf.out = reuse(buf.out, n)
	buf.groups = reuse(buf.groups, n)
	buf.assign = reuse(buf.assign, n)
	if buf.byID == nil {
		buf.byID = make(map[flightID]*batchGroup, n)
	}
	for i, pl := range pls {
		if err := s.planned(pl); err != nil {
			buf.out[i].Err = err
			continue
		}
		id := flightOf(pl)
		g := buf.byID[id]
		if g == nil {
			g = &buf.groups[i]
			*g = batchGroup{pl: pl}
			buf.byID[id] = g
		}
		g.n++
		buf.assign[i] = g
	}
	clear(buf.byID) // its keys view the callers' queries
	for i := range buf.groups {
		// Groups are distinct flights, so none waits on another; the
		// server's parallelism is its connections, one goroutine each,
		// and a helper here would only add a wake-up and lock hand-offs.
		if g := &buf.groups[i]; g.n > 0 {
			g.ans, g.err = s.execute(g.pl, flightOf(g.pl), g.n)
		}
	}
	for i, g := range buf.assign {
		if g != nil {
			buf.out[i] = BatchResult{Answer: g.ans, Err: g.err}
		}
	}
	return buf.out
}

// reuse returns buf's array holding n zero elements, grown if it must.
func reuse[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// AdmissionLockAcquisitions returns the cumulative admission-relevant
// lock acquisitions on the session's accountant (payments and budget
// checks; Block.LockAcquisitions documents what counts).
func (s *Session) AdmissionLockAcquisitions() uint64 { return s.block.LockAcquisitions() }
