package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/domain"
)

// hitStatement is a /query body of the test server's domain; window picks
// one of ten windows over its four partitions and pred one of 45
// predicates, so 450 bodies are distinct statements.
func hitStatement(pred, window int) []byte {
	var wins [][2]int
	for s := 0; s < 4; s++ {
		for e := s; e < 4; e++ {
			wins = append(wins, [2]int{s, e})
		}
	}
	w := wins[window%len(wins)]
	ages := ""
	for a := 0; a < 4; a++ {
		if (pred%15+1)&(1<<a) != 0 {
			ages += fmt.Sprintf(", %d", a)
		}
	}
	sql := fmt.Sprintf("SELECT COUNT(*) FROM covid WHERE age IN (%s) AND time BETWEEN %d AND %d", ages[2:], w[0], w[1])
	if p := pred / 15; p < 2 {
		sql += fmt.Sprintf(" AND positive = %d", p)
	}
	return []byte(`{"sql":"` + sql + `"}`)
}

// handler drives srv.Handle as a connection does: one Request and one
// Response reused from request to request, their arrays and the
// connection's scratch with them.
type handler struct {
	srv  *Server
	req  Request
	resp Response
	body bytes.Reader
}

func (h *handler) do(t *testing.T, path string, body []byte) *Response {
	if resp := h.send(t, path, body); resp.Status != StatusOK {
		t.Fatalf("%s %s: %d %s", path, body, resp.Status, resp.Body)
	}
	return &h.resp
}

// send is do without the check that the response is a 200.
func (h *handler) send(t *testing.T, path string, body []byte) *Response {
	h.req.next(MethodPost, path, int64(len(body)))
	h.body.Reset(body)
	if err := h.srv.Handle(&h.resp, &h.req, &h.body); err != nil {
		t.Fatalf("%s %s: %v", path, body, err)
	}
	return &h.resp
}

// counts is what a statement's trip through Handle moves: the store's
// operation counters, the exact cache's, the exact-hit answers and the
// budget spent.
type counts struct {
	storeHits, storeMisses, storeSets int64
	exactHits, exactMisses            int
	exactAnswers                      int64
	spent                             float64
}

func (s *Server) counts() counts {
	st := s.sess.StoreStats()
	c := counts{storeHits: st.Hits, storeMisses: st.Misses, storeSets: st.Sets,
		exactAnswers: int64(s.sess.SourceCounts()[core.SourceExactHit]), spent: s.sess.AverageSpent()}
	c.exactHits, c.exactMisses = s.sess.ExactCache().Stats()
	return c
}

// TestHandleProbesOnce pins what one statement sent four times through
// Handle counts. The cold request probes once and its flight leader once
// more (two store and two exact misses), pays, and fills the store; each
// repeat is one store hit. A miss that probed again after its query was
// built would read three misses.
func TestHandleProbesOnce(t *testing.T) {
	h := &handler{srv: newTestServer(t, 10)}
	body := hitStatement(3, 5)
	wants := []struct {
		source string
		diff   counts
	}{
		{"tree", counts{storeMisses: 2, storeSets: 1, exactMisses: 2}},
		{"exact-hit", counts{storeHits: 1, exactHits: 1, exactAnswers: 1}},
		{"exact-hit", counts{storeHits: 1, exactHits: 1, exactAnswers: 1}},
		{"exact-hit", counts{storeHits: 1, exactHits: 1, exactAnswers: 1}},
	}
	for i, want := range wants {
		before := h.srv.counts()
		resp := h.do(t, "/query", body)
		after := h.srv.counts()
		if !bytes.Contains(resp.Body, []byte(`"source":"`+want.source+`"`)) {
			t.Fatalf("request %d: %s, want source %s", i, resp.Body, want.source)
		}
		paid := after.spent > before.spent
		after.spent, before.spent = 0, 0
		diff := counts{
			storeHits: after.storeHits - before.storeHits, storeMisses: after.storeMisses - before.storeMisses,
			storeSets: after.storeSets - before.storeSets,
			exactHits: after.exactHits - before.exactHits, exactMisses: after.exactMisses - before.exactMisses,
			exactAnswers: after.exactAnswers - before.exactAnswers,
		}
		if diff != want.diff || paid != (i == 0) {
			t.Errorf("request %d moved %+v (paid %v), want %+v (paid %v)", i, diff, paid, want.diff, i == 0)
		}
	}
}

// TestReusedQueryLeaksNothing sends three statements over one connection,
// whose scratch query each miss is built into: A, with no predicate (the
// widest support), then B, one bin in another window, then A again. Each
// miss must answer exactly what a twin session answers for the same
// statement built fresh, so B's query carried nothing over from A's, in
// its support or its keys; and the third answer must be an exact hit of
// A's first value, so A's fill was filed under A's key.
func TestReusedQueryLeaksNothing(t *testing.T) {
	h := &handler{srv: newTestServer(t, 10)}
	twin := newTestServer(t, 10)
	ask := func(sql string) QueryResponse {
		var got QueryResponse
		if err := json.Unmarshal(h.do(t, "/query", []byte(`{"sql":"`+sql+`"}`)).Body, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := "SELECT COUNT(*) FROM covid WHERE time BETWEEN 0 AND 3"
	b := "SELECT COUNT(*) FROM covid WHERE positive = 1 AND age = 2 AND time BETWEEN 1 AND 1"
	var first QueryResponse
	for i, sql := range []string{a, b} {
		got := ask(sql)
		st, err := twin.parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.sess.Answer(st.Query)
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != string(core.SourceTree) || got.Fraction != want.Value || got.Paid != want.Paid {
			t.Fatalf("%s: %+v, a fresh query answers %+v", sql, got, want)
		}
		if i == 0 {
			first = got
		}
	}
	if again := ask(a); again.Source != string(core.SourceExactHit) || again.Fraction != first.Fraction {
		t.Fatalf("A again: %+v, want an exact hit of %v", again, first.Fraction)
	}
}

// TestGroupByRepeatedColumn: a GROUP BY that names one column twice is a
// 400 parse error naming it, answered before any session call, and the
// connection serves its next request. It used to panic in the cell
// enumeration, which dropped the connection without a response.
func TestGroupByRepeatedColumn(t *testing.T) {
	h := &handler{srv: newTestServer(t, 10)}
	resp := h.send(t, "/groupby", []byte(`{"sql":"SELECT COUNT(*) FROM covid GROUP BY age, age"}`))
	var e ErrorResponse
	if err := json.Unmarshal(resp.Body, &e); err != nil || resp.Status != StatusBadRequest ||
		e.Kind != "parse" || !strings.Contains(e.Message, `"age"`) {
		t.Fatalf("repeated GROUP BY column: %d %s", resp.Status, resp.Body)
	}
	if answers := h.srv.sess.Queries(); answers != 0 || h.srv.sess.AverageSpent() != 0 {
		t.Fatalf("the refusal answered %d cells and spent %v", answers, h.srv.sess.AverageSpent())
	}
	h.do(t, "/groupby", []byte(`{"sql":"SELECT COUNT(*) FROM covid GROUP BY age"}`))
}

// newStreamServer is newTestServer in streaming mode, whose /append
// warm-starts each new partition's tree leaf from the one before it.
func newStreamServer(t *testing.T) *Server {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4},
	)
	sess, err := core.NewSession(core.Config{
		Mode: core.Streaming, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 1e6, Seed: 13,
	}, dataset.New(dom, 4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sess, "covid")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// appendBody is a /append body of one partition over newStreamServer's
// eight bins, as a client marshals it.
func appendBody(i int) []byte {
	return []byte(fmt.Sprintf(`{"partitions":[{"counts":[%d,2,3,4,5,6,7,8]}]}`, i%100))
}

// TestAppendScratchNotRetained: an /append's batch is decoded into its
// connection's scratch and applied from there, before the handler
// returns. Once two /appends from two connections have returned,
// overwriting each connection's body and scratch, as its next request
// would, leaves the partitions they appended holding each request's own
// counts.
func TestAppendScratchNotRetained(t *testing.T) {
	srv := newStreamServer(t)
	hs := []*handler{{srv: srv}, {srv: srv}}
	parts := make([]int, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := h.send(t, "/append", appendBody(11*(i+1)))
			var ar AppendResponse
			if err := json.Unmarshal(resp.Body, &ar); resp.Status != StatusOK || err != nil {
				t.Errorf("append %d: %d %s", i, resp.Status, resp.Body)
				return
			}
			parts[i] = ar.Start
		}()
	}
	wg.Wait()
	for _, h := range hs {
		copy(h.req.Body, appendBody(99))
		for _, c := range h.req.scratch.counts {
			for k := range c {
				c[k] = 77
			}
		}
	}
	ds := srv.sess.Dataset()
	for i, p := range parts {
		want := []int{11 * (i + 1), 2, 3, 4, 5, 6, 7, 8}
		if got := ds.PartitionCounts(p); !slices.Equal(got, want) {
			t.Errorf("partition %d appended by connection %d holds %v, want %v", p, i, got, want)
		}
	}
}

// TestAppendScratchBounded: a connection keeps no more of an /append
// body than the widest batch the route takes. A batch of more than 64
// partitions (413) and a partition of more counts than the domain has
// bins (422) are decoded into the scratch, which drops what they grew.
func TestAppendScratchBounded(t *testing.T) {
	h := &handler{srv: newStreamServer(t)}
	wide := `{"partitions":[{"counts":[` + strings.Repeat("1,", 999) + `1]}]}`
	many := `{"partitions":[` + strings.Repeat("{},", 999) + `{}]}`
	for _, c := range []struct {
		body   string
		status int
	}{{wide, StatusUnprocessableEntity}, {many, StatusRequestEntityTooLarge}} {
		if resp := h.send(t, "/append", []byte(c.body)); resp.Status != c.status {
			t.Fatalf("%d-byte body: %d %s, want %d", len(c.body), resp.Status, resp.Body, c.status)
		}
	}
	sc := h.req.scratch
	if cap(sc.append.Partitions) > 2*maxAppendPartitions || cap(sc.counts[0]) > 2*8 {
		t.Errorf("scratch keeps %d partitions and %d counts", cap(sc.append.Partitions), cap(sc.counts[0]))
	}
	h.do(t, "/append", appendBody(5)) // and still serves
}
