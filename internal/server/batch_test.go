package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/pmw"
)

func postBatch(t *testing.T, ts *liveServer, queries []string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(BatchQueryRequest{Queries: queries})
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestBatchEndpoint pins the ordered per-element contract: answered
// slots, duplicate slots sharing one execution's answer, a parse error
// in its own slot, and counters advancing per element.
func TestBatchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()

	qs := []string{
		"SELECT COUNT(*) FROM covid WHERE positive = 1",
		"SELECT nonsense",
		"SELECT COUNT(*) FROM covid WHERE age IN (1, 2)",
		"SELECT COUNT(*) FROM covid WHERE positive = 1", // duplicate of slot 0
		"SELECT COUNT(*) FROM wrongtable WHERE positive = 1",
	}
	resp, body := postBatch(t, ts, qs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status %d: %s", resp.StatusCode, body)
	}
	var br BatchQueryResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(qs) {
		t.Fatalf("%d results for %d queries", len(br.Results), len(qs))
	}
	for _, i := range []int{0, 2, 3} {
		if br.Results[i].Status != http.StatusOK || br.Results[i].Result == nil {
			t.Fatalf("slot %d = %+v, want 200 with result", i, br.Results[i])
		}
	}
	for _, i := range []int{1, 4} {
		if br.Results[i].Status != http.StatusUnprocessableEntity || br.Results[i].Error == nil ||
			br.Results[i].Error.Kind != "parse" {
			t.Fatalf("slot %d = %+v, want 422 parse", i, br.Results[i])
		}
	}
	if br.Results[0].Result.Fraction != br.Results[3].Result.Fraction {
		t.Fatal("duplicate slots disagree")
	}
	if got := getBudget(t, ts); got.Queries != 3 || got.Answers != 3 {
		t.Fatalf("served counter = %d, answers counter = %d, want 3 each (one per 200 element)", got.Queries, got.Answers)
	}

	// Replaying the same batch is exact-hit fan-out.
	_, body = postBatch(t, ts, qs[:1])
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Result.Source != "exact-hit" {
		t.Fatalf("replay source = %s, want exact-hit", br.Results[0].Result.Source)
	}
}

// TestBatchEndpointMixedAdmission is the mixed 200/429 smoke CI runs:
// one batch containing queries on an exhausted window and on healthy
// windows gets per-element 429s and 200s in order. Each refusal is the
// tree's payment for its own statement failing, in that statement's
// slot; the batch has no admission step of its own.
func TestBatchEndpointMixedAdmission(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()

	// Exhaust partition 0's budget directly; the tree's payments for
	// windows touching it are refused while [1,3] stays healthy.
	acct := srv.sess.Accountant()
	if err := acct.PayRange(0, 0, accountant.Laplace(acct.Global())); err != nil {
		t.Fatal(err)
	}
	refusalsBefore := getBudget(t, ts).Refusals
	qs := []string{
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 0 AND 1",
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 1 AND 3",
		"SELECT COUNT(*) FROM covid WHERE age = 2 AND time BETWEEN 0 AND 0",
	}
	resp, body := postBatch(t, ts, qs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status %d: %s", resp.StatusCode, body)
	}
	var br BatchQueryResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	want := []int{http.StatusTooManyRequests, http.StatusOK, http.StatusTooManyRequests}
	for i, w := range want {
		if br.Results[i].Status != w {
			t.Fatalf("slot %d status = %d, want %d (%+v)", i, br.Results[i].Status, w, br.Results[i])
		}
	}
	if br.Results[0].Error.Kind != "exhausted" {
		t.Fatalf("slot 0 kind = %s, want exhausted", br.Results[0].Error.Kind)
	}
	if got := getBudget(t, ts).Refusals - refusalsBefore; got != 2 {
		t.Fatalf("refusals advanced by %d, want 2", got)
	}
}

// TestBatchEndpointMalformed pins the envelope-level failures.
func TestBatchEndpointMalformed(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()

	resp, _ := postBatch(t, ts, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d, want 400", r2.StatusCode)
	}
	r3, err := http.Get(ts.URL + "/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", r3.StatusCode)
	}
}

// TestBatchEndpointIsQueryEndpoint: a statement is answered the same
// through /query and /query/batch. Once the window's sparse vector is
// live and the rest of each of its partitions is spent, a fresh statement
// its trained histogram estimates well is a free 200 on both endpoints,
// from the same source (core.TestAnswerBatchIsAnswerAlone below the
// socket).
func TestBatchEndpointIsQueryEndpoint(t *testing.T) {
	srv, _ := newTestServerWith(t, 100, func(c *core.Config) {
		c.Tau = 0.25
		c.LR = func() pmw.Schedule { return pmw.Constant(0.2) }
		c.Heuristic = func() heuristic.Heuristic { return heuristic.AlwaysReady{} }
	})
	ts := serve(t, srv)
	defer ts.Close()

	stmt := func(positive, ages string) string {
		return "SELECT COUNT(*) FROM covid WHERE positive IN (" + positive + ") AND age IN (" + ages + ") AND time BETWEEN 0 AND 3"
	}
	alone, inBatch := stmt("1", "0, 1"), stmt("1", "2, 3")
	// Train the window's histogram on every other predicate, each asked
	// once; the last answer leaves the sparse vector live.
	for _, positive := range []string{"0", "1", "0, 1"} {
		for bits := 1; bits < 16; bits++ {
			var ages []string
			for a := range 4 {
				if bits&(1<<a) != 0 {
					ages = append(ages, strconv.Itoa(a))
				}
			}
			sql := stmt(positive, strings.Join(ages, ", "))
			if sql == alone || sql == inBatch {
				continue
			}
			if resp, body := postQuery(t, ts, sql); resp.StatusCode != http.StatusOK {
				t.Fatalf("training %q: %d %s", sql, resp.StatusCode, body)
			}
		}
	}
	acct := srv.sess.Accountant()
	for p, e := range acct.SpentVector() {
		if err := acct.PayRange(p, p, accountant.Laplace(acct.Global()-e)); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := postQuery(t, ts, alone)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d: %s", resp.StatusCode, body)
	}
	var one QueryResponse
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	resp, body = postBatch(t, ts, []string{inBatch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query/batch envelope status %d: %s", resp.StatusCode, body)
	}
	var br BatchQueryResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if got := br.Results[0]; got.Status != http.StatusOK {
		t.Fatalf("/query read 200 (%s, paid %g), /query/batch read %d: %+v", one.Source, one.Paid, got.Status, got.Error)
	}
	if got := br.Results[0].Result; one.Paid != 0 || got.Paid != 0 || one.Source != got.Source {
		t.Fatalf("/query %s paid %g, /query/batch %s paid %g", one.Source, one.Paid, got.Source, got.Paid)
	}
}
