package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/dataset"
)

// documented is every status each route documents (ARCHITECTURE
// "Server"); TestListenerMatchesHandler must see each one.
var documented = map[string][]int{
	"/query":       {200, 400, 405, 413, 422, 429, 500},
	"/query/batch": {200, 400, 405, 413, 500},
	"/groupby":     {200, 400, 405, 413, 429},
	"/append":      {200, 400, 405, 413, 422},
	"/budget":      {200, 405},
	"/schema":      {200, 405},
	"/snapshot":    {200, 405},
	"/restore":     {200, 400, 405, 409, 422},
	"/nowhere":     {404},
}

// residentBytes is /schema's count of the pages the cache store maps,
// which two stores that hold the same entries may round differently.
var residentBytes = regexp.MustCompile(`"resident_bytes":\d+`)

// twins is two servers over sessions built alike, one behind the
// production listener and one behind Handler() in process. Every request
// goes to both, and the two answers must agree byte for byte.
type twins struct {
	t      *testing.T
	live   *liveServer
	inproc http.Handler
	srvs   [2]*testServer
	seen   map[string]map[int]bool
}

func newTwins(t *testing.T, seen map[string]map[int]bool, build func() *testServer) *twins {
	a, b := build(), build()
	tw := &twins{t: t, live: serve(t, a), inproc: b.Handler(), srvs: [2]*testServer{a, b}, seen: seen}
	t.Cleanup(func() {
		tw.live.Close()
		a.Close()
		b.Close()
	})
	return tw
}

// each runs fn on both servers.
func (tw *twins) each(fn func(*testServer)) {
	for _, s := range tw.srvs {
		fn(s)
	}
}

// do sends one request to both servers, requires status want and the same
// status, Content-Type and body from each (resident_bytes aside), and
// returns the body.
func (tw *twins) do(method, path string, body []byte, want int) []byte {
	tw.t.Helper()
	req, err := http.NewRequest(method, tw.live.URL+path, bytes.NewReader(body))
	if err != nil {
		tw.t.Fatal(err)
	}
	resp, err := tw.live.Client().Do(req)
	if err != nil {
		tw.t.Fatalf("%s %s: %v", method, path, err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		tw.t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tw.inproc.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if l, p := resp.Header.Get("Content-Type"), rec.Header().Get("Content-Type"); l != p {
		tw.t.Errorf("%s %s: Content-Type %q from the listener, %q from Handler()", method, path, l, p)
	}
	if resp.StatusCode != rec.Code || !bytes.Equal(residentBytes.ReplaceAll(got, nil), residentBytes.ReplaceAll(rec.Body.Bytes(), nil)) {
		tw.t.Fatalf("%s %s: the listener answers %d %.200q, Handler() %d %.200q", method, path, resp.StatusCode, got, rec.Code, rec.Body.Bytes())
	}
	if resp.StatusCode != want {
		tw.t.Fatalf("%s %s: %d %.200q, want %d", method, path, resp.StatusCode, got, want)
	}
	if tw.seen[path] == nil {
		tw.seen[path] = map[int]bool{}
	}
	tw.seen[path][want] = true
	return got
}

// TestListenerMatchesHandler: through every route and every status it
// documents, turbo-server's listener and the net/http adapter the
// benchmark's in-process twin measures answer alike, so the twin measures
// the production handlers.
func TestListenerMatchesHandler(t *testing.T) {
	seen := map[string]map[int]bool{}
	const sql = "SELECT COUNT(*) FROM covid WHERE positive = 1"
	query := func(sql string) []byte { b, _ := json.Marshal(QueryRequest{SQL: sql}); return b }
	batch := func(qs ...string) []byte { b, _ := json.Marshal(BatchQueryRequest{Queries: qs}); return b }
	huge := query(sql + strings.Repeat(" ", maxAnalystBody))
	build := func(mut func(*core.Config)) func() *testServer {
		return func() *testServer {
			srv, _ := newTestServerWith(t, 100, mut)
			return srv
		}
	}
	tw := newTwins(t, seen, build(nil))
	domSize := tw.srvs[0].sess.Dataset().Domain().Size()

	// Before serving: the restore window.
	fresh := tw.do("GET", "/snapshot", nil, 200)
	tw.do("POST", "/snapshot", nil, 405)
	tw.do("GET", "/restore", nil, 405)
	tw.do("POST", "/restore", []byte("not a snapshot"), 400)
	var foreign bytes.Buffer
	other, _ := newTestServerWith(t, 100, func(c *core.Config) { c.Mode = core.NonPartitioned })
	if err := other.sess.SaveState(&foreign); err != nil {
		t.Fatal(err)
	}
	tw.do("POST", "/restore", foreign.Bytes(), 422)
	tw.do("POST", "/restore", fresh, 200)
	tw.do("POST", "/restore", fresh, 409)

	tw.do("GET", "/query", nil, 405)
	tw.do("POST", "/query", []byte(`{"sql":`), 400)
	tw.do("POST", "/query", query("SELEC"), 400)
	tw.do("POST", "/query", huge, 413)
	tw.do("POST", "/query", query(sql), 200)
	tw.do("POST", "/query", query(sql), 200)
	tw.do("POST", "/query", query(sql+" AND time BETWEEN 2 AND 9"), 422)

	tw.do("GET", "/query/batch", nil, 405)
	tw.do("POST", "/query/batch", batch(), 400)
	tw.do("POST", "/query/batch", huge, 413)
	tw.do("POST", "/query/batch", batch(sql, "SELEC", sql+" AND time BETWEEN 1 AND 2"), 200)

	const group = "SELECT COUNT(*) FROM covid WHERE time BETWEEN 0 AND 1 GROUP BY age"
	tw.do("GET", "/groupby", nil, 405)
	tw.do("POST", "/groupby", query("SELECT COUNT(*) FROM covid GROUP BY nothing"), 400)
	tw.do("POST", "/groupby", huge, 413)
	tw.do("POST", "/groupby", query(group), 200)

	empties := func(n int) []byte { return []byte(`{"partitions":[{}` + strings.Repeat(`,{}`, n-1) + `]}`) }
	tw.do("GET", "/append", nil, 405)
	tw.do("POST", "/append", []byte(`{"partitions":[]}`), 400)
	tw.do("POST", "/append", empties(65), 413)
	rows := bytes.Replace(appendBody(t, domSize, 1, 0), []byte("[0,"), []byte("["+strconv.Itoa(dataset.MaxRows+1)+","), 1)
	tw.do("POST", "/append", rows, 422)
	tw.do("POST", "/append", appendBody(t, domSize, 1, 5), 200)

	tw.do("GET", "/budget", nil, 200)
	tw.do("POST", "/budget", nil, 405)
	tw.do("GET", "/schema", nil, 200)
	tw.do("POST", "/schema", nil, 405)
	live := tw.do("GET", "/snapshot", nil, 200)
	tw.do("GET", "/nowhere", nil, 404)

	// Partition 0 spent: what reads it is refused.
	tw.each(func(s *testServer) {
		acct := s.sess.Accountant()
		if err := acct.PayRange(0, 0, accountant.Laplace(acct.Global()-acct.SpentVector()[0])); err != nil {
			t.Fatal(err)
		}
	})
	tw.do("POST", "/query", query("SELECT COUNT(*) FROM covid WHERE age = 3 AND time BETWEEN 0 AND 0"), 429)
	tw.do("POST", "/groupby", query("SELECT COUNT(*) FROM covid WHERE time BETWEEN 0 AND 0 GROUP BY positive"), 429)
	tw.do("GET", "/budget", nil, 200)

	// A refused restore leaves the server as it was: a good snapshot then
	// restores, and the server serves.
	refused := newTwins(t, seen, build(nil))
	bad := corruptSnapshot(t, live, "tree/nodes")
	refused.do("POST", "/restore", bad, 422)
	refused.do("POST", "/restore", fresh, 200)
	refused.do("POST", "/query", query(sql), 200)
	refused.do("POST", "/restore", bad, 409)

	// An answer with no JSON form.
	inf := newTwins(t, seen, func() *testServer { return newInfiniteServer(t) })
	inf.do("POST", "/query", query(sql), 500)
	inf.do("POST", "/query/batch", batch(sql), 500)

	for path, statuses := range documented {
		for _, st := range statuses {
			if !seen[path][st] {
				t.Errorf("%s %d: not exercised", path, st)
			}
		}
	}
}
