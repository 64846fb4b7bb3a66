package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server/httpd"
)

// TestNonFiniteResponseIs500: a response holding NaN or ±Inf is a 500
// "internal" with a body. A session with ε_G = +Inf reports +Inf remaining
// budget; writeJSON, encoding after the header was out, answered it 200
// with an empty body.
func TestNonFiniteResponseIs500(t *testing.T) {
	srv, _ := newTestServer(t, math.Inf(1))
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
	`{"sql":"` + strings.Repeat("a", 1<<20+1) + `"}`,
}

// FuzzDecodeAnalyst: httpd.Decode yields, for every body, what
// encoding/json's Decoder yields — the same struct, or an error where it
// errs — so whether the scanner or encoding/json decoded a body cannot be
// told from outside.
func FuzzDecodeAnalyst(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var gotQ, wantQ QueryRequest
		gotErr := httpd.Decode(body, &gotQ)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&wantQ)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && gotQ != wantQ) {
			t.Fatalf("body %q: Decode %+v (%v), encoding/json %+v (%v)", body, gotQ, gotErr, wantQ, wantErr)
		}
		var gotB, wantB BatchQueryRequest
		gotErr = httpd.Decode(body, &gotB)
		wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantB)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !reflect.DeepEqual(gotB, wantB)) {
			t.Fatalf("body %q: Decode %#v (%v), encoding/json %#v (%v)", body, gotB, gotErr, wantB, wantErr)
		}
	})
}
