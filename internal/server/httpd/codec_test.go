package httpd

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
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
		{{Status: StatusOK, Result: &resps[0]}},
		{{Status: StatusTooManyRequests, Error: &ErrorResponse{"exhausted", "global privacy budget exhausted"}}},
		{
			{Status: StatusOK, Result: &resps[4]},
			{Status: StatusUnprocessableEntity, Error: &ErrorResponse{"parse",
				"sqlparser: unexpected character '<' at 3: \"café & \\ \x7f \" \t\n"}},
			{Status: StatusTooManyRequests, Error: &ErrorResponse{"exhausted", "global privacy budget exhausted"}},
			{Status: StatusOK, Result: &resps[9]},
			{Status: StatusUnprocessableEntity, Error: &ErrorResponse{"bad-request", "invalid utf-8 \xff here"}},
			{},
		},
	}
	for _, items := range batches {
		got, err := appendBatchResponse(nil, items)
		if want := encodingJSON(t, BatchQueryResponse{Results: items}); err != nil || !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("appendBatchResponse: %v\n got %s\nwant %s", err, got, want)
		}
	}

	// /groupby bodies, over names encoding/json escapes (HTML characters,
	// quotes, U+2028, a byte that is not UTF-8) beside plain ones and an
	// attribute whose levels have no names.
	dom := domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "a<b>&\"c\"", Card: 5, Levels: []string{"<", "&amp;", `"q"`, "café\u2028", "x\xffy"}},
		domain.Attribute{Name: "age", Card: 12},
	)
	names := quoteNames(dom)
	groupings := []struct {
		attrs []int
		cells int
	}{
		{nil, 1},            // no GROUP BY: group_by and values are null
		{[]int{1}, 5},       // escaped names
		{[]int{2}, 12},      // unnamed levels
		{[]int{2, 0, 1}, 7}, // three attributes, the first 7 cells
	}
	for _, g := range groupings {
		var (
			cells []groupCell
			vals  []int
		)
		want := GroupByResponse{}
		for _, a := range g.attrs {
			want.GroupBy = append(want.GroupBy, dom.Attr(a).Name)
		}
		for c := range g.cells {
			f := floats[c%len(floats)]
			src := core.Sources[c%len(core.Sources)]
			row := GroupRow{Fraction: f, Count: f * 3, Source: string(src)}
			cells = append(cells, groupCell{fraction: f, count: f * 3, source: src})
			for j, a := range g.attrs {
				v := (c + j) % dom.Card(a)
				vals = append(vals, v)
				row.Values = append(row.Values, dom.LevelName(a, v))
			}
			want.Rows = append(want.Rows, row)
			want.Paid += floats[(c+1)%len(floats)] / 1e3 // summed, as the handler sums
		}
		got, err := appendGroupByResponse(nil, &names, g.attrs, cells, vals, want.Paid)
		if want := encodingJSON(t, want); err != nil || !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("appendGroupByResponse(%v, %d cells): %v\n got %s\nwant %s", g.attrs, g.cells, err, got, want)
		}
	}
}

// TestEncodersRefuseNonFinite: NaN and ±Inf have no JSON form, so an
// append encoder handed one errors instead of writing a body.
func TestEncodersRefuseNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendQueryResponse(nil, &QueryResponse{Count: f}); err == nil {
			t.Errorf("appendQueryResponse encoded %v", f)
		}
		if _, err := appendBatchResponse(nil, []BatchItem{{Result: &QueryResponse{}}, {Result: &QueryResponse{Remaining: f}}}); err == nil {
			t.Errorf("appendBatchResponse encoded %v", f)
		}
		names := quoteNames(domain.MustNew(domain.Attribute{Name: "age", Card: 2}))
		if _, err := appendGroupByResponse(nil, &names, []int{0}, []groupCell{{}, {count: f}}, []int{0, 1}, 0); err == nil {
			t.Errorf("appendGroupByResponse encoded a cell of %v", f)
		}
		if _, err := appendGroupByResponse(nil, &names, []int{0}, []groupCell{{}}, []int{0}, f); err == nil {
			t.Errorf("appendGroupByResponse encoded paid %v", f)
		}
	}
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
		if _, got := scanSQL(c.body); got != c.scanned {
			t.Errorf("scanSQL(%q) = %v, want %v", c.body, got, c.scanned)
		}
		var req QueryRequest
		err := Decode([]byte(c.body), &req)
		if c.errSub == "" && (err != nil || req.SQL != c.sql) {
			t.Errorf("Decode(%q) = %+v, %v; want sql %q", c.body, req, err, c.sql)
		}
		if c.errSub != "" && (err == nil || !strings.Contains(err.Error(), c.errSub)) {
			t.Errorf("Decode(%q) error %v, want %q", c.body, err, c.errSub)
		}
	}
}
