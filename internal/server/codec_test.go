package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// encodingJSON is the body writeJSON produced for v before the append
// encoders took the 200 bodies of /query and /query/batch over.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodersMatchEncodingJSON: the append encoders write the bytes
// encoding/json writes. It catches a float format off at either end of the
// exponent rule (1e-6 and 1e21 are the first values on the far side of
// each), an untrimmed two-digit exponent, -0 losing its sign, a field out
// of order, a missing newline, and a core.Source that would need the
// escaping the encoder does not do.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 9.99e-7, 1e-6, 123456789.125,
		1e20, 9.999e20, 1e21, -1e21, 1.7976931348623157e308, math.SmallestNonzeroFloat64, 0.1 + 0.2, 2000000, 10 - 0.19935}
	var resps []QueryResponse
	for i, f := range floats {
		resps = append(resps, QueryResponse{Fraction: f, Count: f / 2, Source: string(core.Sources[i%len(core.Sources)]),
			Paid: floats[(i+1)%len(floats)], Remaining: floats[(i+2)%len(floats)]})
	}
	for _, src := range core.Sources {
		for _, c := range []byte(src) {
			if c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				t.Errorf("core.Source %q holds %q, which encoding/json escapes and appendQueryResponse does not", src, c)
			}
		}
		resps = append(resps, QueryResponse{Source: string(src)})
	}
	for i := range resps {
		got, err := appendQueryResponse(nil, &resps[i])
		if want := encodingJSON(t, resps[i]); err != nil || !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("appendQueryResponse: %v\n got %s\nwant %s", err, got, want)
		}
	}

	batches := [][]BatchItem{
		{},
		{{Status: http.StatusOK, Result: &resps[0]}},
		{{Status: http.StatusTooManyRequests, Error: &ErrorResponse{"exhausted", "global privacy budget exhausted"}}},
		{
			{Status: http.StatusOK, Result: &resps[4]},
			{Status: http.StatusUnprocessableEntity, Error: &ErrorResponse{"parse",
				"sqlparser: unexpected character '<' at 3: \"café & \\ \x7f \" \t\n"}},
			{Status: http.StatusTooManyRequests, Error: &ErrorResponse{"exhausted", "global privacy budget exhausted"}},
			{Status: http.StatusOK, Result: &resps[9]},
			{Status: http.StatusUnprocessableEntity, Error: &ErrorResponse{"bad-request", "invalid utf-8 \xff here"}},
			{},
		},
	}
	for _, items := range batches {
		got, err := appendBatchResponse(nil, items)
		if want := encodingJSON(t, BatchQueryResponse{Results: items}); err != nil || !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("appendBatchResponse: %v\n got %s\nwant %s", err, got, want)
		}
	}
}

// TestNonFiniteResponseIs500: a response holding NaN or ±Inf is a 500
// "internal" with a body. A session with ε_G = +Inf reports +Inf remaining
// budget; writeJSON, encoding after the header was out, answered it 200
// with an empty body.
func TestNonFiniteResponseIs500(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendQueryResponse(nil, &QueryResponse{Count: f}); err == nil {
			t.Errorf("appendQueryResponse encoded %v", f)
		}
		if _, err := appendBatchResponse(nil, []BatchItem{{Result: &QueryResponse{}}, {Result: &QueryResponse{Remaining: f}}}); err == nil {
			t.Errorf("appendBatchResponse encoded %v", f)
		}
	}
	srv, _ := newTestServer(t, math.Inf(1))
	ts := httptest.NewServer(srv.Handler())
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
	if got := srv.queries.Load(); got != 0 {
		t.Errorf("%d requests counted as served, none got a 200", got)
	}
}

// TestBatchReadsBudgetOnce: every 200 element of one /query/batch response
// reports the same remaining budget, the one read made after the batch
// was answered.
func TestBatchReadsBudgetOnce(t *testing.T) {
	srv, _ := newTestServer(t, 100)
	ts := httptest.NewServer(srv.Handler())
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

// FuzzDecodeAnalyst: wherever the scanner accepts a body it yields the
// struct encoding/json's Decoder yields — the call decodeBody makes for
// every other body — so which of the two ran cannot be told from outside.
func FuzzDecodeAnalyst(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var gotQ, wantQ QueryRequest
		if scanRequest(string(body), &gotQ) {
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wantQ); err != nil || gotQ != wantQ {
				t.Fatalf("body %q: scanner %+v, encoding/json %+v (%v)", body, gotQ, wantQ, err)
			}
		} else if gotQ != (QueryRequest{}) {
			t.Fatalf("body %q: refused, yet wrote %+v", body, gotQ)
		}
		var gotB, wantB BatchQueryRequest
		if scanRequest(string(body), &gotB) {
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wantB); err != nil || !reflect.DeepEqual(gotB, wantB) {
				t.Fatalf("body %q: scanner %#v, encoding/json %#v (%v)", body, gotB, wantB, err)
			}
		} else if gotB.Queries != nil {
			t.Fatalf("body %q: refused, yet wrote %#v", body, gotB)
		}
	})
}

// TestDecodeBodyFallsBack: bodies the scanner refuses reach encoding/json
// with their bytes intact, and the ones it accepts never do.
func TestDecodeBodyFallsBack(t *testing.T) {
	cases := []struct {
		body    string
		scanned bool
		sql     string // decoded QueryRequest.SQL; "" with an error
		errSub  string
	}{
		{`{"sql":"x"}`, true, "x", ""},
		{` { "sql" : "a b" } `, true, "a b", ""},
		{`{"SQL":"x"}`, false, "x", ""},
		{`{"sql":"x"} trailing`, false, "x", ""},
		{`{"sql":"x","extra":1}`, false, "x", ""},
		{`{"sql":"aA"}`, true, "aA", ""},
		{`{"sql":"x","sql":"y"}`, false, "y", ""},
		{`{"sql":"x"`, false, "", "unexpected EOF"},
		{``, false, "", "EOF"},
		{`{"sql":7}`, false, "", "cannot unmarshal number"},
	}
	for _, c := range cases {
		var scanned QueryRequest
		if got := scanRequest(c.body, &scanned); got != c.scanned {
			t.Errorf("scanRequest(%q) = %v, want %v", c.body, got, c.scanned)
		}
		var req QueryRequest
		err := decodeBody([]byte(c.body), &req)
		if c.errSub == "" && (err != nil || req.SQL != c.sql) {
			t.Errorf("decodeBody(%q) = %+v, %v; want sql %q", c.body, req, err, c.sql)
		}
		if c.errSub != "" && (err == nil || !strings.Contains(err.Error(), c.errSub)) {
			t.Errorf("decodeBody(%q) error %v, want %q", c.body, err, c.errSub)
		}
	}
}
