package httpd

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/domain"
)

// writeJSON answers v as encoding/json's Encoder writes it: what the
// handlers wrote before every body was appended, and the oracle's
// writer.
func writeJSON(w *Response, status int, v any) {
	b := bytes.NewBuffer(w.Body[:0])
	_ = json.NewEncoder(b).Encode(v)
	w.Status, w.ContentType, w.Body = status, "application/json", b.Bytes()
}

// encodingJSON is the body writeJSON writes for v.
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
	// Every response in one batch, each budget beside another one (0
	// beside -0 among them), and a batch's usual run of one budget read,
	// broken by a refusal, another budget and a way back.
	var every []BatchItem
	for i := range resps {
		every = append(every, BatchItem{Status: StatusOK, Result: &resps[i]})
	}
	shared := []QueryResponse{
		{Fraction: 0.25, Count: 500, Source: "tree", Paid: 0.1, Remaining: 9.5},
		{Fraction: 0.5, Count: 1000, Source: "exact-hit", Remaining: 9.5},
		{Source: "tree", Remaining: 0},
		{Source: "tree", Remaining: math.Copysign(0, -1)},
		{Source: "tree", Remaining: 1e-7},
	}
	var runs []BatchItem
	for _, k := range []int{0, 1, 0, -1, 1, 2, 3, 2, 4, 4, 0} {
		if k < 0 {
			runs = append(runs, BatchItem{Status: StatusTooManyRequests, Error: &ErrorResponse{"exhausted", "global privacy budget exhausted"}})
			continue
		}
		runs = append(runs, BatchItem{Status: StatusOK, Result: &shared[k]})
	}
	batches = append(batches, every, runs)
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

	// The bodies outside the analyst hot path — errors, /append,
	// /budget, /schema, /restore — over strings holding every ASCII byte,
	// U+2028, U+2029, multi-byte runes and bytes that are not UTF-8, nil
	// and empty slices and maps, and omitted and present optional members.
	var ascii []byte
	for c := range 128 {
		ascii = append(ascii, byte(c))
	}
	texts := []string{"", "plain", string(ascii), "a\u2028b\u2029c", "café ☃ 😀", "x\xffy\xc3", "\xed\xa0\x80 surrogate", "<&>"}
	check := func(name string, got []byte, err error, v any) {
		t.Helper()
		if want := encodingJSON(t, v); err != nil || !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: %v\n got %s\nwant %s", name, err, got, want)
		}
	}
	for _, kind := range texts {
		for _, msg := range texts {
			e := ErrorResponse{kind, msg}
			check("appendError", appendError(nil, &e), nil, e)
		}
	}
	for _, r := range []AppendResponse{{}, {Start: 3, End: 9, Partitions: 10}, {Start: -1, End: math.MaxInt, Partitions: math.MinInt}} {
		check("appendAppendResponse", appendAppendResponse(nil, &r), nil, r)
	}
	for _, r := range []RestoreResponse{{}, {Partitions: 50, AverageSpent: 1e-7}} {
		got, err := appendRestoreResponse(nil, &r)
		check("appendRestoreResponse", got, err, r)
	}
	budgets := []BudgetResponse{
		{},
		{PerPartition: []float64{}, BySource: map[string]int64{}},
		{Global: 10, AverageSpent: 0.1 + 0.2, MaxSpent: 1e-7, PerPartition: []float64{0, 1e21, 0.5},
			Queries: 7, Answers: 9, Refusals: 2, BySource: map[string]int64{"tree": 3, "exact-hit": 5, "pmw-r1": 1, "<q>": -1},
			RDP: &RDPBudget{Delta: 1e-6, LiveMechanisms: 4}},
	}
	for _, r := range budgets {
		got, err := appendBudgetResponse(nil, &r)
		check("appendBudgetResponse", got, err, r)
	}
	schemas := []SchemaResponse{
		{},
		{Attributes: []string{}, Cache: &CacheStats{}},
		{Table: "covid", Domain: texts[2], Attributes: texts, Rows: 199992, Partitions: 50,
			Cache: &CacheStats{Backend: "bounded-slru", Entries: 3, Bytes: 4, ResidentBytes: 5, CapBytes: 6, Hits: 7,
				Misses: 8, Evictions: 9, SetErrors: 11},
			Ingestion: &IngestionStats{1, 2, 3, 4, 5}},
	}
	for _, r := range schemas {
		got, err := appendSchemaResponse(nil, &r)
		check("appendSchemaResponse", got, err, r)
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
		if _, err := appendBudgetResponse(nil, &BudgetResponse{PerPartition: []float64{0, f}}); err == nil {
			t.Errorf("appendBudgetResponse encoded %v", f)
		}
		if _, err := appendRestoreResponse(nil, &RestoreResponse{AverageSpent: f}); err == nil {
			t.Errorf("appendRestoreResponse encoded %v", f)
		}
	}
}

// TestDecodeBody: the scanner decodes what encoding/json's Decoder
// decodes — keys it folds, unknown and repeated members, data after the
// value, escapes — and refuses what it refuses, with its errors for a
// body cut short, an empty one and a mistyped member. A statement that
// needs no unescaping views the body.
func TestDecodeBody(t *testing.T) {
	cases := []struct {
		body    string
		inPlace bool
		sql     string // decoded QueryRequest.SQL; "" with an error
		errSub  string
	}{
		{`{"sql":"x"}`, true, "x", ""},
		{` { "sql" : "a b" } `, true, "a b", ""},
		{`{"SQL":"x"}`, true, "x", ""},
		{`{"\u017fql":"x"}`, true, "x", ""}, // ſ folds to S
		{`{"sql":"x"} trailing`, true, "x", ""},
		{`{"sql":"x","extra":[1,{"a":null}]}`, true, "x", ""},
		{`{"sql":"café"}`, true, "café", ""},
		{`{"sql":"x","sql":"y"}`, true, "y", ""},
		{`{"sql":"x","sql":null}`, true, "x", ""},
		{`null`, false, "", ""},
		{`{"sql":"a\"b\u00e9\ud83d\ude00\ud800"}`, false, "a\"bé😀\ufffd", ""},
		{"{\"sql\":\"x\xffy\"}", false, "x\ufffdy", ""},
		{`{"sql":"x"`, false, "", "unexpected EOF"},
		{``, false, "", "EOF"},
		{`{"sql":7}`, false, "", "cannot unmarshal number"},
		{`{"sql":"x",}`, false, "", "invalid character"},
		{`{"sql":"\x"}`, false, "", "invalid character"},
		{`{"sql":"\u12G4"}`, false, "", "invalid character"},
		{"{\"sql\":\"a\tb\"}", false, "", "invalid character"},
		{`{"n":01}`, false, "", "invalid character"},
		{`[]`, false, "", "cannot unmarshal array"},
		{`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`, false, "", "max depth"},
	}
	for _, c := range cases {
		var req QueryRequest
		err := scanQuery(c.body, &req.SQL)
		if c.errSub == "" && (err != nil || req.SQL != c.sql) {
			t.Errorf("scanQuery(%q) = %q, %v; want %q", c.body, req.SQL, err, c.sql)
		}
		if c.errSub != "" && (err == nil || !strings.Contains(err.Error(), c.errSub)) {
			t.Errorf("scanQuery(%q) error %v, want %q", c.body, err, c.errSub)
		}
		if viewed := err == nil && len(req.SQL) > 0 && strings.Contains(c.body, req.SQL) &&
			unsafe.StringData(req.SQL) == unsafe.StringData(c.body[strings.Index(c.body, req.SQL):]); viewed != c.inPlace {
			t.Errorf("scanQuery(%q): statement views the body %v, want %v", c.body, viewed, c.inPlace)
		}
		var want QueryRequest
		wantErr := json.NewDecoder(strings.NewReader(c.body)).Decode(&want)
		if (err == nil) != (wantErr == nil) || err == nil && req != want {
			t.Errorf("scanQuery(%q) = %q, %v; encoding/json %q, %v", c.body, req.SQL, err, want.SQL, wantErr)
		}
	}
}

// appendSeeds are bodies FuzzDecodeAppend starts from: the canonical
// shape, empty and null partitions and counts, null counts, folded and
// escaped keys, repeated members that decode into what the first left,
// whitespace, trailing data, negative numbers, overflow, numbers that are
// not integers, and bodies cut short or of the wrong shape.
var appendSeeds = []string{
	`{"partitions":[{"counts":[1,2,3]}]}`,
	`{"partitions":[{}]}`,
	`{"partitions":[{"counts":null},null,{"counts":[]}]}`,
	`{"partitions":[{"counts":[1,null,3]}]}`,
	`{"PARTITIONS":[{"Counts":[1]}],"\u017fhadow":1}`,
	`{"partitions":[{"co\u0075nts":[1]}],"x":"\ud83d\ude00"}`,
	`{"partitions":[{"counts":[1]}],"partitions":[{},{"counts":[null,2]}]}`,
	`{"partitions":[{"counts":[1,2,3]}],"partitions":[{"counts":[4]}],"partitions":[{"counts":[5,null,null,null,null]}]}`,
	`{"partitions":[{"counts":[1,2]},{"counts":[3]}],"partitions":[],"partitions":[{"counts":[null]},null]}`,
	`{"partitions":[{"counts":[1,2]},{"counts":[3]}],"partitions":[null],"partitions":[{},{}]}`,
	`{"partitions":[{"counts":[1,2],"counts":null,"counts":[null,5]}]}`,
	` {"partitions" : [ {"counts" : [ 1 , 2 ] } ] } trailing`,
	`{"partitions":[{"counts":[-1,-0,0]}]}`,
	`{"partitions":[{"counts":[9223372036854775807,-9223372036854775808]}]}`,
	`{"partitions":[{"counts":[9223372036854775808]}]}`,
	`{"partitions":[{"counts":[1.0]}]}`,
	`{"partitions":[{"counts":[1e2]}]}`,
	`{"partitions":[{"counts":["1"]}]}`,
	`{"partitions":[{"counts":[1]}`,
	`{"partitions":[{"counts":[01]}]}`,
	`{"partitions":{}}`,
	`{"partitions":[[]]}`,
	`null`,
	``,
	`[]`,
}

// FuzzDecodeAppend: the scanner decodes every /append body as
// encoding/json's Decoder decodes it into a fresh AppendRequest — the
// same request, or an error where it errs — both through Decode and as
// handleAppend decodes, into a connection's scratch that an earlier body
// has left holding partitions and counts.
func FuzzDecodeAppend(f *testing.F) {
	for _, s := range appendSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want AppendRequest
		gotErr := Decode(body, &got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: Decode %#v (%v), encoding/json %#v (%v)", body, got, gotErr, want, wantErr)
		}
		var sc scratch
		for _, b := range []string{`{"partitions":[{"counts":[7,7,7,7]},{"counts":[7,7]},{"counts":[7]},{}]}`, string(body)} {
			gotErr = sc.decodeAppend(b)
		}
		// A scratch's batch is never nil, and the handler refuses a batch
		// of no partitions whatever its slice.
		empty := len(sc.append.Partitions) == 0 && len(want.Partitions) == 0
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !empty && !reflect.DeepEqual(sc.append, want) {
			t.Fatalf("body %q: into a scratch %#v (%v), encoding/json %#v (%v)", body, sc.append, gotErr, want, wantErr)
		}
	})
}
