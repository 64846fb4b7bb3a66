// The batch plane: AnswerBatch answers a whole slice of queries, each
// through Answer, in order, on the caller, whose connection is the
// server's unit of parallelism. A statement gets the same answer, at the
// same price, whichever entry point carries it: a batch shares nothing
// its members would not share asked one by one. A repeated member is an
// exact hit of the release its first occurrence filled, and a member a
// concurrent caller is executing joins that flight. The payments inside
// each execution are the one point where the budget is enforced: a
// member whose window is spent is refused there, in its own slot,
// without dooming its batchmates.
package core

import "repro/internal/query"

// BatchResult is one query's outcome within AnswerBatch: exactly one of
// Answer and Err is meaningful, matching Answer's return pair.
type BatchResult struct {
	Answer Answer
	Err    error
}

// AnswerBatch answers a batch of linear queries, returning one ordered
// result per query: Answer's, member by member, in order. Per-query
// failures (planning errors, ErrBudgetExhausted) land in that query's
// slot.
func (s *Session) AnswerBatch(qs []*query.Query) []BatchResult {
	out := make([]BatchResult, len(qs))
	for i, q := range qs {
		out[i].Answer, out[i].Err = s.Answer(q)
	}
	return out
}

// AdmissionLockAcquisitions returns the cumulative admission-relevant
// lock acquisitions on the session's accountant (payments and budget
// checks; Block.LockAcquisitions documents what counts).
func (s *Session) AdmissionLockAcquisitions() uint64 { return s.block.LockAcquisitions() }
