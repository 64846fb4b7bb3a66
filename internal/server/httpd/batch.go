// POST /query/batch: the HTTP surface of the session's batch plane.
//
// Analysts submit an ordered array of SQL statements and get back one
// ordered result per statement, each with its own status — a dashboard
// refresh or a decomposed workload ships one round-trip instead of N,
// and the session amortizes planning, cache probes, admission locking,
// and shared evaluation state across the batch (core.AnswerBatch).
// Statuses are per element: one over-budget query 429s in its slot
// without dooming its batchmates, exactly like the singleton endpoint's
// status mapping. The envelope itself is 200 whenever the batch was
// processed; only malformed requests (400) and the boot latch (503 after
// a restore failed midway) fail the whole call.

package httpd

import (
	"errors"
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

// handleQueryBatch parses every statement, runs the parseable ones
// through the session's batch plane in one call, and assembles the
// ordered per-element status array. Counters advance exactly as if the
// elements had been served individually: one served request and one
// answer per 200 element, one refusal per 429 element.
func (s *Server) handleQueryBatch(w *Response, r *Request) {
	var req BatchQueryRequest
	if !decodeAnalyst(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, StatusBadRequest, ErrorResponse{"bad-request", "empty batch"})
		return
	}
	if !s.serving(w) {
		return
	}

	items := make([]BatchItem, len(req.Queries))
	qs := make([]*query.Query, 0, len(req.Queries))
	slots := make([]int, 0, len(req.Queries))
	for i, sql := range req.Queries {
		st, err := s.parser.Parse(sql)
		if err != nil {
			items[i] = BatchItem{Status: StatusUnprocessableEntity,
				Error: &ErrorResponse{"parse", err.Error()}}
			continue
		}
		if !strings.EqualFold(st.Table, s.table) {
			items[i] = BatchItem{Status: StatusUnprocessableEntity,
				Error: &ErrorResponse{"parse", "unknown table " + strconv.Quote(st.Table)}}
			continue
		}
		qs = append(qs, st.Query)
		slots = append(slots, i)
	}

	served := 0
	if len(qs) > 0 {
		results := s.sess.AnswerBatch(qs)
		// One budget read and one allocation serve every 200 element of
		// the response: AverageSpent takes the accountant's lock and sums
		// its partitions, and the batch has stopped paying by now.
		remaining := s.sess.Accountant().Global() - s.sess.AverageSpent()
		resps := make([]QueryResponse, len(results))
		for k, res := range results {
			i := slots[k]
			switch {
			case errors.Is(res.Err, accountant.ErrBudgetExhausted):
				s.refusals.Add(1)
				items[i] = BatchItem{Status: StatusTooManyRequests,
					Error: &ErrorResponse{"exhausted", "global privacy budget exhausted"}}
			case res.Err != nil:
				items[i] = BatchItem{Status: StatusUnprocessableEntity,
					Error: &ErrorResponse{"bad-request", res.Err.Error()}}
			default:
				ans := res.Answer
				s.countAnswer(ans.Source)
				served++
				resps[k] = QueryResponse{
					Fraction:  ans.Value,
					Count:     ans.Value * float64(ans.Rows),
					Source:    string(ans.Source),
					Paid:      ans.Paid,
					Remaining: remaining,
				}
				items[i] = BatchItem{Status: StatusOK, Result: &resps[k]}
			}
		}
	}
	body, err := appendBatchResponse(w.Body[:0], items)
	if err != nil {
		writeJSON(w, StatusInternalServerError, ErrorResponse{"internal", err.Error()})
		return
	}
	s.queries.Add(int64(served))
	writeAppended(w, body)
}
