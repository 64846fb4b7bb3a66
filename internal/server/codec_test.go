package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestNonFiniteResponseIs500: a response holding NaN or ±Inf is a 500
// "internal" with a body. A store that returns +Inf makes every answer
// +Inf; writeJSON, encoding after the header was out, once answered such
// a response 200 with an empty body.
func TestNonFiniteResponseIs500(t *testing.T) {
	srv := newInfiniteServer(t)
	ts := serve(t, srv)
	defer ts.Close()
	const sql = "SELECT COUNT(*) FROM covid WHERE positive = 1"
	resp, body := postQuery(t, ts, sql)
	respB, bodyB := postBatch(t, ts, []string{sql})
	for path, got := range map[string]struct {
		status int
		body   []byte
	}{"/query": {resp.StatusCode, body}, "/query/batch": {respB.StatusCode, bodyB}} {
		var er ErrorResponse
		if err := json.Unmarshal(got.body, &er); got.status != http.StatusInternalServerError ||
			err != nil || er.Kind != "internal" || er.Message == "" {
			t.Errorf("%s: status %d body %q (%v), want a 500 internal with a message", path, got.status, got.body, err)
		}
	}
}

// TestBatchReadsBudgetOnce: every 200 element of one /query/batch response
// reports the same remaining budget, the one read made after the batch
// was answered.
func TestBatchReadsBudgetOnce(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := serve(t, srv)
	defer ts.Close()
	_, body := postBatch(t, ts, []string{
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 0 AND 1",
		"SELECT COUNT(*) FROM covid WHERE age = 2 AND time BETWEEN 2 AND 3",
		"SELECT COUNT(*) FROM covid WHERE age IN (0, 1)",
	})
	var br BatchQueryResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	want := srv.sess.Accountant().Global() - srv.sess.AverageSpent()
	for i, it := range br.Results {
		if it.Result == nil || it.Result.Remaining != want || want >= 100 {
			t.Fatalf("slot %d: %+v, want remaining_budget %v", i, it.Result, want)
		}
	}
}

// decodeSeeds are request bodies on both sides of what the scanner
// accepts; each decodes, or fails, as encoding/json alone decides.
var decodeSeeds = []string{
	`{"sql":"SELECT COUNT(*) FROM covid WHERE positive = 1"}`,
	`{"queries":["SELECT COUNT(*) FROM covid","SELECT COUNT(*) FROM covid WHERE age IN (1, 2)"]}`,
	" {\t\"sql\" :\r\n\"x\" } \n",
	`{"queries":[]}`,
	`{"queries" : [ "a" , "b" ] }`,
	`{"SQL":"x"}`,
	`{"sql":"aA"}`,
	`{"sql":"x"} trailing`,
	`{"sql":"x","extra":1}`,
	`{"sql":"x","sql":"y"}`,
	`{"sql":"tab\there"}`,
	`{"sql":"caf` + "é" + `"}`,
	`{"sql":"bad ` + "\xff" + ` utf8"}`,
	`{"sql":"raw` + "\n" + `newline"}`,
	`{"sql":null}`,
	`{"sql":7}`,
	`{"queries":["a",]}`,
	`{"queries":["a" "b"]}`,
	`{"queries":"a"}`,
	`{"queries":null}`,
	`{"sql":"unterminated`,
	`{"sql":"x"`,
	`{}`,
	``,
	`[]`,
	`{"sql":"` + strings.Repeat("a", maxAnalystBody+1) + `"}`,
}

// FuzzDecodeAnalyst: the adapter hands every /query and /query/batch body
// to the scanner whole. It answers a 400 "bad-request" decode error
// exactly where encoding/json's Decoder refuses the body, and a 413 to a
// body past the cap, unread. httpd's FuzzDecodeAnalyst holds the decoded
// value itself to encoding/json.
func FuzzDecodeAnalyst(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	srv, _ := newTestServer(f, 100)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for path, into := range map[string]any{"/query": new(QueryRequest), "/query/batch": new(BatchQueryRequest)} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			var er ErrorResponse
			_ = json.Unmarshal(rec.Body.Bytes(), &er)
			refused := rec.Code == http.StatusBadRequest && er.Kind == "bad-request" && er.Message != "empty batch"
			wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(into)
			switch {
			case len(body) > maxAnalystBody:
				if rec.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("%s: a %d-byte body answered %d, want 413", path, len(body), rec.Code)
				}
			case refused != (wantErr != nil):
				t.Fatalf("%s body %q: answered %d %+v, encoding/json %v", path, body, rec.Code, er, wantErr)
			}
		}
	})
}
