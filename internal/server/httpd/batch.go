// POST /query/batch: the HTTP surface of the session's batch plane.
//
// Analysts submit an ordered array of SQL statements and get back one
// ordered result per statement, each with its own status — a dashboard
// refresh or a decomposed workload ships one round-trip instead of N.
// Each element takes /query's step, in order, so it is answered exactly
// as /query would answer it at that point: a repeated element is an
// exact hit of the release its first occurrence filled.
// Statuses are per element: one over-budget query 429s in its slot
// without dooming its batchmates, exactly like the singleton endpoint's
// status mapping. The envelope itself is 200 whenever the batch was
// processed; only a malformed request (400) fails the whole call.

package httpd

import (
	"errors"
	"slices"
	"strconv"
	"strings"

	"repro/internal/accountant"
	"repro/internal/query"
)

// BatchQueryRequest is the /query/batch payload: an ordered array of
// SQL statements.
type BatchQueryRequest struct {
	Queries []string `json:"queries"`
}

// BatchItem is one statement's outcome within a /query/batch response:
// Status mirrors the singleton endpoint's mapping (200 answered, 429
// budget-exhausted, 422 unparseable or unanswerable), with exactly one
// of Result and Error populated.
type BatchItem struct {
	Status int            `json:"status"`
	Result *QueryResponse `json:"result,omitempty"`
	Error  *ErrorResponse `json:"error,omitempty"`
}

// BatchQueryResponse is the /query/batch result: Results[i] answers
// Queries[i].
type BatchQueryResponse struct {
	Results []BatchItem `json:"results"`
}

// handleQueryBatch answers every element through the answer step, in
// order, keeping each outcome in the connection's scratch, where the
// ordered per-element status array is then assembled. Counters advance
// exactly as if the elements had been served individually: one served
// request and one answer per 200 element, one refusal per 429 element.
func (s *Server) handleQueryBatch(w *Response, r *Request) {
	sc := r.scratchFor()
	sqls, ok := decodeQueries(w, r, sc.sqls)
	sc.sqls = sqls
	// They view the body, and "" over the array's capacity is what the
	// next decode into it needs.
	defer clear(sqls[:cap(sqls)])
	if !ok {
		return
	}
	if len(sqls) == 0 {
		writeError(w, StatusBadRequest, "bad-request", "empty batch")
		return
	}

	sc.items, sc.res = reuse(sc.items, len(sqls)), reuse(sc.res, len(sqls))
	items, res := sc.items, sc.res
	for i, sql := range sqls {
		var b query.Builder
		table, err := s.parser.ParseInto(sql, &b)
		if err == nil && !strings.EqualFold(table, s.table) {
			err = errors.New("unknown table " + strconv.Quote(table))
		}
		keyed := false
		if err == nil {
			res[i].Answer, keyed, err = s.answer(sc, &b)
		}
		if !keyed {
			items[i] = BatchItem{Status: StatusUnprocessableEntity,
				Error: &ErrorResponse{"parse", err.Error()}}
			continue
		}
		res[i].Err = err
	}

	// One budget read serves every 200 element of the response:
	// AverageSpent takes the accountant's lock and sums its partitions,
	// and the batch has stopped paying by now.
	remaining := s.sess.Accountant().Global() - s.sess.AverageSpent()
	sc.resps = reuse(sc.resps, len(sqls))
	served := 0
	for i := range items {
		if items[i].Status != 0 {
			continue // refused before the session saw it
		}
		switch err := res[i].Err; {
		case errors.Is(err, accountant.ErrBudgetExhausted):
			s.refusals.Add(1)
			items[i] = BatchItem{Status: StatusTooManyRequests,
				Error: &ErrorResponse{"exhausted", "global privacy budget exhausted"}}
		case err != nil:
			items[i] = BatchItem{Status: StatusUnprocessableEntity,
				Error: &ErrorResponse{"bad-request", err.Error()}}
		default:
			ans := res[i].Answer
			served++
			sc.resps[i] = QueryResponse{
				Fraction:  ans.Value,
				Count:     ans.Value * float64(ans.Rows),
				Source:    string(ans.Source),
				Paid:      ans.Paid,
				Remaining: remaining,
			}
			items[i] = BatchItem{Status: StatusOK, Result: &sc.resps[i]}
		}
	}
	body, err := appendBatchResponse(w.Body[:0], items)
	if err != nil {
		writeError(w, StatusInternalServerError, "internal", err.Error())
		return
	}
	s.queries.Add(int64(served))
	writeBody(w, StatusOK, body)
}

// reuse returns buf's array holding n zero elements, grown if it must.
func reuse[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}
