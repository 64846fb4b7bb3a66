package httpd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/accountant"
)

// oracleGroupBy is handleGroupBy as it was before cells were probed by
// key: ParseGrouped builds every cell's query, each goes through
// Session.Answer, and encoding/json writes the body.
func (s *Server) oracleGroupBy(w *Response, sql string) {
	gs, err := s.parser.ParseGrouped(sql)
	if err != nil {
		writeJSON(w, StatusBadRequest, ErrorResponse{"parse", err.Error()})
		return
	}
	if gs.Table != s.table {
		writeJSON(w, StatusBadRequest, ErrorResponse{"parse",
			fmt.Sprintf("unknown table %q (have %q)", gs.Table, s.table)})
		return
	}
	dom := s.sess.Dataset().Domain()
	resp := GroupByResponse{}
	for _, attr := range gs.GroupBy {
		resp.GroupBy = append(resp.GroupBy, dom.Attr(attr).Name)
	}
	for _, g := range gs.Groups {
		ans, err := s.sess.Answer(g.Query)
		if errors.Is(err, accountant.ErrBudgetExhausted) {
			s.refusals.Add(1)
			writeJSON(w, StatusTooManyRequests, ErrorResponse{"exhausted",
				"global privacy budget exhausted mid-group; partial results withheld"})
			return
		}
		if err != nil {
			writeJSON(w, StatusUnprocessableEntity, ErrorResponse{"bad-request", err.Error()})
			return
		}
		row := GroupRow{Fraction: ans.Value, Count: ans.Value * float64(ans.Rows), Source: string(ans.Source)}
		for j, v := range g.Values {
			row.Values = append(row.Values, dom.LevelName(gs.GroupBy[j], v))
		}
		resp.Rows = append(resp.Rows, row)
		resp.Paid += ans.Paid
	}
	s.countServed()
	writeJSON(w, StatusOK, resp)
}

// TestGroupByMatchesOracle runs one sequence of requests on two servers
// built alike: /groupby through Handle on one and through the oracle on
// the other, every other request through Handle on both. The sequence is
// a first-time /groupby, its repeats, a batch that overlaps its cells,
// a grouping that overlaps them again, and then first-time groupings
// until the budget runs out mid-group. Every response body, /budget
// (per partition) and the answer counters must agree. GOMAXPROCS 1 runs
// the batch's misses on the handler, in order, so noise draws line up.
func TestGroupByMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const epsG = 0.1
	got, want := &handler{srv: newTestServer(t, epsG)}, &handler{srv: newTestServer(t, epsG)}
	sql := func(body []byte) string {
		var q QueryRequest
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		return q.SQL
	}
	type step struct{ path, body string }
	group := "SELECT COUNT(*) FROM covid WHERE time BETWEEN 0 AND 2 GROUP BY positive, age"
	steps := []step{
		{"/groupby", group},
		{"/groupby", group},
		{"/groupby", "SELECT COUNT(*) FROM covid WHERE time BETWEEN 0 AND 2"},
		{"/query/batch", `{"queries":["SELECT COUNT(*) FROM covid WHERE positive = 1 AND age = 2 AND time BETWEEN 0 AND 2",` +
			`"SELECT COUNT(*) FROM covid WHERE age = 3 AND time BETWEEN 0 AND 2",` +
			`"SELECT COUNT(*) FROM covid WHERE positive = 0 AND age = 0 AND time BETWEEN 0 AND 2"]}`},
		{"/groupby", "SELECT COUNT(*) FROM covid WHERE time BETWEEN 0 AND 2 GROUP BY age"},
		{"/groupby", group},
	}
	for w := range 10 {
		for pos := range 3 {
			steps = append(steps, step{"/groupby", sql(groupByStatement(pos, w))})
		}
	}
	midGroup := false
	for i, st := range steps {
		body := []byte(st.body)
		if st.path == "/groupby" {
			body, _ = json.Marshal(QueryRequest{SQL: st.body})
		}
		answers := got.srv.sess.Queries()
		g := got.send(t, st.path, body)
		if st.path == "/groupby" {
			want.resp = Response{}
			want.srv.oracleGroupBy(&want.resp, st.body)
		} else {
			want.send(t, st.path, body)
		}
		if g.Status != want.resp.Status || !bytes.Equal(g.Body, want.resp.Body) {
			t.Fatalf("step %d %s %s:\n got %d %s\nwant %d %s", i, st.path, st.body, g.Status, g.Body, want.resp.Status, want.resp.Body)
		}
		if g.Status == StatusTooManyRequests && got.srv.sess.Queries() > answers {
			midGroup = true
		}
		gb, wb := got.budget(t), want.budget(t)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("step %d: /budget\n got %s\nwant %s", i, gb, wb)
		}
	}
	if !midGroup {
		t.Fatal("no /groupby ran out of budget mid-group: the sequence must reach one")
	}
}

// groupByStatement is a /groupby body of the test server's domain,
// grouped by age under positive = pos (2 for none) in window w of
// hitStatement's ten: 30 statements whose 120 cells are all distinct.
func groupByStatement(pos, w int) []byte {
	var wins [][2]int
	for s := 0; s < 4; s++ {
		for e := s; e < 4; e++ {
			wins = append(wins, [2]int{s, e})
		}
	}
	where := ""
	if pos < 2 {
		where = fmt.Sprintf("positive = %d AND ", pos)
	}
	return []byte(fmt.Sprintf(`{"sql":"SELECT COUNT(*) FROM covid WHERE %stime BETWEEN %d AND %d GROUP BY age"}`,
		where, wins[w%len(wins)][0], wins[w%len(wins)][1]))
}

// budget answers GET /budget through Handle.
func (h *handler) budget(t *testing.T) []byte {
	h.req.next(MethodGet, "/budget", 0)
	h.body.Reset(nil)
	if err := h.srv.Handle(&h.resp, &h.req, &h.body); err != nil || h.resp.Status != StatusOK {
		t.Fatalf("/budget: %d %v %s", h.resp.Status, err, h.resp.Body)
	}
	return bytes.Clone(h.resp.Body)
}
