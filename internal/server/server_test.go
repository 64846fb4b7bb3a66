package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/server/httpd"
	"repro/internal/store"
)

// partitionRows returns partition p's public row count.
func partitionRows(ds *dataset.Dataset, p int) int {
	n, _ := ds.NRows(p, p)
	return n
}

// addCount loads count rows of the encoded value bin into partition p of
// ds: a one-hot BulkLoad.
func addCount(ds *dataset.Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

// testServer is a Server with the session it serves.
type testServer struct {
	*Server
	sess *core.Session
}

// newServer builds the server of sess, for table covid.
func newServer(t *testing.T, sess *core.Session) *testServer {
	t.Helper()
	srv, err := New(sess, "covid")
	if err != nil {
		t.Fatal(err)
	}
	return &testServer{srv, sess}
}

// liveServer is a server behind turbo-server's own listener on a loopback
// port: the production front end, as httptest.Server would give net/http's.
type liveServer struct {
	URL    string
	srv    interface{ Shutdown() }
	served chan error
	once   sync.Once
	client *http.Client
}

// serve serves srv on 127.0.0.1:0 until Close.
func serve(t testing.TB, srv interface {
	Serve(*httpd.Listener) error
	Shutdown()
}) *liveServer {
	t.Helper()
	l, err := httpd.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ls := &liveServer{URL: "http://" + l.Addr().String(), srv: srv, served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{}}}
	go func() { ls.served <- srv.Serve(l) }()
	return ls
}

// Client is an HTTP client of its own for the server.
func (ls *liveServer) Client() *http.Client { return ls.client }

// Close shuts the server down and waits for Serve to return.
func (ls *liveServer) Close() {
	ls.once.Do(func() {
		ls.srv.Shutdown()
		<-ls.served
		ls.client.CloseIdleConnections()
	})
}

func newTestServer(t *testing.T, epsG float64) (*testServer, *dataset.Dataset) {
	return newTestServerWith(t, epsG, nil)
}

// newTestServerWith builds the standard 4-partition covid test server,
// letting mut adjust the session config (mode, Gaussian accounting, ...).
func newTestServerWith(t *testing.T, epsG float64, mut func(*core.Config)) (*testServer, *dataset.Dataset) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4},
	)
	ds := dataset.New(dom, 4)
	for w := 0; w < 4; w++ {
		for a := 0; a < 4; a++ {
			_ = addCount(ds, w, dom.Encode([]int{1, a}), 1000+100*a)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), 4000-150*a)
		}
	}
	cfg := core.Config{
		Mode: core.Partitioned, Alpha: 0.05, Beta: 0.001,
		EpsilonGlobal: epsG, Seed: 13,
	}
	if mut != nil {
		mut(&cfg)
	}
	sess, err := core.NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(t, sess), ds
}

func postQuery(t *testing.T, ts *liveServer, sql string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestQueryEndpoint(t *testing.T) {
	srv, ds := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()

	resp, body := postQuery(t, ts, "SELECT COUNT(*) FROM covid WHERE positive = 1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 3)
	if math.Abs(qr.Fraction-truth) > 0.05 {
		t.Fatalf("fraction %g vs truth %g", qr.Fraction, truth)
	}
	if qr.Count <= 0 || qr.Source == "" {
		t.Fatalf("response = %+v", qr)
	}
	if qr.Remaining >= 100 {
		t.Fatal("remaining budget not reduced")
	}
}

func TestWindowedQueryEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()
	resp, body := postQuery(t, ts,
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 1 AND 2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Outside-window partitions untouched.
	br, _ := http.Get(ts.URL + "/budget")
	var budget BudgetResponse
	_ = json.NewDecoder(br.Body).Decode(&budget)
	br.Body.Close()
	if budget.PerPartition[0] != 0 || budget.PerPartition[3] != 0 {
		t.Fatalf("outside-window partitions charged: %v", budget.PerPartition)
	}
	if budget.PerPartition[1] == 0 {
		t.Fatal("window partition not charged")
	}
}

func TestParseErrorsReturn400(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()
	cases := []string{
		"SELECT AVG(*) FROM covid",
		"SELECT COUNT(*) FROM wrongtable",
		"not sql at all",
		"SELECT COUNT(*) FROM covid WHERE bogus = 1",
	}
	for _, sql := range cases {
		resp, body := postQuery(t, ts, sql)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d (%s)", sql, resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Kind != "parse" {
			t.Fatalf("%q: error payload %s", sql, body)
		}
	}
}

func TestBadJSONAndMethod(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", resp.StatusCode)
	}
	gr, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d", gr.StatusCode)
	}
}

// maxAnalystBody is the documented cap on /query, /query/batch and
// /groupby bodies.
const maxAnalystBody = 1 << 20

// TestOversizedBodyRefused: an analyst-facing body past the cap is a 413
// on every SQL endpoint — a valid statement padded beyond it, so only
// the size can be at fault — and the refusal touches no budget.
func TestOversizedBodyRefused(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()
	budget := func() []byte {
		resp, err := http.Get(ts.URL + "/budget")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	before := budget()

	sql := "SELECT COUNT(*) FROM covid WHERE positive = 1" + strings.Repeat(" ", maxAnalystBody)
	single, _ := json.Marshal(QueryRequest{SQL: sql})
	batch, _ := json.Marshal(BatchQueryRequest{Queries: []string{sql}})
	for path, body := range map[string][]byte{"/query": single, "/groupby": single, "/query/batch": batch} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || er.Kind != "bad-request" {
			t.Fatalf("%s: status %d, payload %+v (%v), want a 413 bad-request", path, resp.StatusCode, er, err)
		}
	}
	if after := budget(); !bytes.Equal(before, after) {
		t.Fatalf("/budget moved across refused bodies:\n%s\n%s", before, after)
	}
	// The same statement inside the cap is served.
	if resp, body := postQuery(t, ts, strings.TrimSpace(sql)); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap query: status %d: %s", resp.StatusCode, body)
	}
}

func TestExhaustionReturns429(t *testing.T) {
	srv, _ := newTestServer(t, 1e-9)
	ts := serve(t, srv)
	defer ts.Close()
	resp, body := postQuery(t, ts, "SELECT COUNT(*) FROM covid WHERE positive = 1")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "exhausted" {
		t.Fatalf("error payload %s", body)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	srv, ds := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Table != "covid" || sr.Rows != ds.NRowsAll() || sr.Partitions != 4 {
		t.Fatalf("schema = %+v", sr)
	}
	if len(sr.Attributes) != 2 {
		t.Fatalf("attributes = %v", sr.Attributes)
	}
	if sr.Cache == nil || sr.Cache.Backend != "arena" {
		t.Fatalf("cache section = %+v", sr.Cache)
	}
}

// foreignValue is a stored value in another codec than cache.Entry's.
type foreignValue string

func (v foreignValue) AppendFast(dst []byte) []byte { return append(dst, v...) }

// TestSchemaCacheSectionBounded pins the /schema cache section over the
// bounded backend: backend name, cap, and live hit/miss/eviction/bytes
// and error counters thread up from the store through the session.
func TestSchemaCacheSectionBounded(t *testing.T) {
	// Room for four releases: a covid key here is 7 bytes, beside an
	// entry's encoding.
	capBytes := 4 * (7 + len(cache.Entry{}.AppendFast(nil)))
	be := store.NewMem(store.MemConfig{MaxBytes: capBytes})
	srv, _ := newTestServerWith(t, 100, func(c *core.Config) { c.Backend = be })
	ts := serve(t, srv)
	defer ts.Close()
	// Poison one backend entry and read it back as a cache entry: the
	// backend deletes it and counts a decode error.
	if err := be.Set("poison", foreignValue("not-an-entry")); err != nil {
		t.Fatal(err)
	}
	var e cache.Entry
	if ok, err := be.Get("poison", &e); ok || err == nil {
		t.Fatalf("poisoned read: ok=%v err=%v", ok, err)
	}
	// And refuse one fill: a key past the store's limit.
	if err := be.Set(strings.Repeat("k", 1<<16), e); err == nil {
		t.Fatal("the store took a 64 KiB key")
	}
	sqls := []string{
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 0 AND 0",
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 1 AND 1",
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 2 AND 2",
		"SELECT COUNT(*) FROM covid WHERE age = 1 AND time BETWEEN 0 AND 0",
		"SELECT COUNT(*) FROM covid WHERE age = 2 AND time BETWEEN 1 AND 1",
		"SELECT COUNT(*) FROM covid WHERE age = 3 AND time BETWEEN 2 AND 2",
	}
	for round := 0; round < 3; round++ {
		for _, sql := range sqls {
			resp, _ := postQuery(t, ts, sql)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %q: status %d", sql, resp.StatusCode)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	c := sr.Cache
	if c == nil || c.Backend != "bounded-slru" {
		t.Fatalf("cache section = %+v", c)
	}
	if c.CapBytes != capBytes {
		t.Fatalf("cap_bytes = %d", c.CapBytes)
	}
	if c.Bytes > c.CapBytes || c.Entries > 4 {
		t.Fatalf("%d entries, %d bytes over cap %d", c.Entries, c.Bytes, c.CapBytes)
	}
	if c.Evictions == 0 {
		t.Fatal("no evictions surfaced after cache churn over a 4-entry cap")
	}
	if c.SetErrors != 1 {
		t.Fatalf("set_errors = %d, want the one refused fill", c.SetErrors)
	}
	if c.Hits+c.Misses == 0 || c.Bytes == 0 || c.ResidentBytes < c.Bytes {
		t.Fatalf("counters missing: %+v", c)
	}
	if c.ExactHits+c.ExactMisses == 0 {
		t.Fatalf("exact-cache counters missing: %+v", c)
	}
	if c.DecodeErrors != 1 {
		t.Fatalf("decode_errors = %d, want the backend's 1", c.DecodeErrors)
	}
}

func TestConcurrentAnalysts(t *testing.T) {
	// Many analysts hammering the endpoint concurrently must never
	// corrupt state or exceed the guarantee.
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()

	sqls := []string{
		"SELECT COUNT(*) FROM covid WHERE positive = 1",
		"SELECT COUNT(*) FROM covid WHERE age = 2",
		"SELECT COUNT(*) FROM covid WHERE positive = 0 AND age IN (0,1)",
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 0 AND 1",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body, _ := json.Marshal(QueryRequest{SQL: sqls[(g+i)%len(sqls)]})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()

	br, _ := http.Get(ts.URL + "/budget")
	var budget BudgetResponse
	_ = json.NewDecoder(br.Body).Decode(&budget)
	br.Body.Close()
	if budget.MaxSpent > budget.Global {
		t.Fatalf("guarantee exceeded: %g > %g", budget.MaxSpent, budget.Global)
	}
	if budget.Queries == 0 {
		t.Fatal("no queries recorded")
	}
}

func TestGroupByEndpoint(t *testing.T) {
	srv, ds := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT COUNT(*) FROM covid WHERE positive = 1 GROUP BY age"})
	resp, err := http.Post(ts.URL+"/groupby", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var gr GroupByResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.GroupBy) != 1 || gr.GroupBy[0] != "age" {
		t.Fatalf("group_by = %v", gr.GroupBy)
	}
	if len(gr.Rows) != 4 {
		t.Fatalf("rows = %d", len(gr.Rows))
	}
	// Rows sum to approximately the base fraction.
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 3)
	sum := 0.0
	for _, row := range gr.Rows {
		sum += row.Fraction
		if len(row.Values) != 1 {
			t.Fatalf("row values = %v", row.Values)
		}
	}
	if math.Abs(sum-truth) > 4*0.05 {
		t.Fatalf("group sum %g vs %g", sum, truth)
	}
	if gr.Paid <= 0 {
		t.Fatal("cold group-by paid nothing")
	}
}

func TestGroupByParseError(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()
	body, _ := json.Marshal(QueryRequest{SQL: "SELECT COUNT(*) FROM covid GROUP BY bogus"})
	resp, err := http.Post(ts.URL+"/groupby", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "t"); err == nil {
		t.Fatal("nil session accepted")
	}
	srv, _ := newTestServer(t, 10)
	if _, err := New(srv.sess, ""); err == nil {
		t.Fatal("empty table accepted")
	}
}
