// The wire codec of the hot analyst endpoints (ARCHITECTURE "Server", the
// codec rule): 200 bodies of /query, /query/batch and /groupby are
// appended into the connection's response buffer, byte for byte what
// encoding/json's Encoder wrote, and request bodies of the two fixed
// shapes are scanned in place, their statements viewing the body. Every
// other body, in either direction, stays with encoding/json.

package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"repro/internal/core"
	"repro/internal/domain"
)

// maxAnalystBody caps the request body of the analyst-facing endpoints
// (/query, /query/batch, /groupby), whose payloads are SQL text. /append
// has its own cap, maxAppendBody; /restore stays uncapped: its body scales
// with the snapshot. The front end refuses a body past its route's cap
// from the head, with 413, before it reads any of it.
const maxAnalystBody = 1 << 20

// maxAppendPartitions is how many partitions one /append batch may hold,
// and so how many a /append body has room for at the widest counts. A
// batch is one ingestion epoch, and 64 holds the paper's longest
// evaluated timeline (50 weekly partitions) in one. The byte cap alone
// would not bound the count: an empty partition is two bytes.
const maxAppendPartitions = 64

// maxAppendBody caps a /append body over a domain of domSize bins, so one
// client cannot make the server hold an arbitrarily large body: room for
// maxAppendPartitions partitions whose every count is as wide as an int
// prints (math.MinInt64) with its comma, each wrapped in {"counts":[]},
// inside the batch's {"partitions":[]}. Real counts print in a few
// digits, so the cap admits far more partitions of real data than that.
func maxAppendBody(domSize int) int64 {
	const widestCount = len("-9223372036854775808,")
	const partition = len(`{"counts":[]},`)
	const batch = len(`{"partitions":[]}`)
	return int64(maxAppendPartitions*(domSize*widestCount+partition) + batch)
}

// decodeSQL decodes the statement of a /query or /groupby body. A body
// of the shape scanSQL takes is read in place: the statement views
// r.Body, and must not outlive the request. Any other goes to
// decodeAnalyst.
func decodeSQL(w *Response, r *Request) (string, bool) {
	if sql, ok := scanSQL(view(r.Body)); ok && r.Method == MethodPost {
		return sql, true
	}
	var req QueryRequest
	ok := decodeAnalyst(w, r, &req)
	return req.SQL, ok
}

// decodeQueries is decodeSQL for a /query/batch body: its statements,
// appended to dst[:0].
func decodeQueries(w *Response, r *Request, dst []string) ([]string, bool) {
	if sqls, ok := scanQueries(view(r.Body), dst); ok && r.Method == MethodPost {
		return sqls, true
	}
	req := BatchQueryRequest{Queries: dst[:0]}
	ok := decodeAnalyst(w, r, &req)
	return req.Queries, ok
}

// decodeAnalyst decodes an analyst-facing POST body into req, a
// *QueryRequest or *BatchQueryRequest. On failure it writes the response
// itself — 405 for another method, 400 for malformed JSON — and returns
// false; no session state has been touched at that point.
func decodeAnalyst(w *Response, r *Request, req any) bool {
	if r.Method != MethodPost {
		writeJSON(w, StatusMethodNotAllowed, ErrorResponse{"bad-request", "POST only"})
		return false
	}
	if err := Decode(r.Body, req); err != nil {
		writeJSON(w, StatusBadRequest, ErrorResponse{"bad-request", err.Error()})
		return false
	}
	return true
}

// view returns b's bytes as a string without copying them. The string
// is valid only while b's array is not written: a view of a request body
// must not outlive the request.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Decode decodes one analyst request body into req, a *QueryRequest or
// *BatchQueryRequest, with the result encoding/json's Decoder gives: by
// the scanner when the body has the shape it accepts, else by
// encoding/json, which thereby keeps defining unknown-field, key-case,
// escape, duplicate-key and trailing-data behaviour. FuzzDecodeAnalyst
// pins that the two cannot be told apart. req's strings do not view body.
func Decode(body []byte, req any) error {
	s := string(body)
	switch req := req.(type) {
	case *QueryRequest:
		if sql, ok := scanSQL(s); ok {
			req.SQL = sql
			return nil
		}
	case *BatchQueryRequest:
		if sqls, ok := scanQueries(s, req.Queries); ok {
			req.Queries = sqls
			return nil
		}
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scanSQL returns the statement of s when s is exactly {"sql":"…"}, with
// JSON whitespace between tokens, as a substring of s.
func scanSQL(s string) (string, bool) {
	sc := scanner{s: s}
	if !sc.key("sql") {
		return "", false
	}
	sql, ok := sc.str()
	return sql, ok && sc.end()
}

// scanQueries appends to dst[:0] the statements of s when s is exactly
// {"queries":["…",…]}, with JSON whitespace between tokens, as substrings
// of s.
func scanQueries(s string, dst []string) ([]string, bool) {
	sc := scanner{s: s}
	if !sc.key("queries") || !sc.lit('[') {
		return dst, false
	}
	sqls := dst[:0]
	if sqls == nil {
		sqls = []string{} // as encoding/json decodes [] into a nil slice
	}
	for !sc.lit(']') {
		if len(sqls) > 0 && !sc.lit(',') {
			return dst, false
		}
		q, ok := sc.str()
		if !ok {
			return dst, false
		}
		sqls = append(sqls, q)
	}
	return sqls, sc.end()
}

// scanner reads JSON tokens off s from position i.
type scanner struct {
	s string
	i int
}

// space skips JSON whitespace.
func (sc *scanner) space() {
	for sc.i < len(sc.s) && (sc.s[sc.i] == ' ' || sc.s[sc.i] == '\t' || sc.s[sc.i] == '\r' || sc.s[sc.i] == '\n') {
		sc.i++
	}
}

// lit consumes the byte c, after any whitespace, if it is next.
func (sc *scanner) lit(c byte) bool {
	sc.space()
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str consumes a string that needs no unescaping and no UTF-8 check:
// printable ASCII without '\'.
func (sc *scanner) str() (string, bool) {
	if !sc.lit('"') {
		return "", false
	}
	for start := sc.i; sc.i < len(sc.s); sc.i++ {
		switch c := sc.s[sc.i]; {
		case c == '"':
			sc.i++
			return sc.s[start : sc.i-1], true
		case c < ' ' || c == '\\' || c >= 0x80:
			return "", false
		}
	}
	return "", false
}

// key consumes `{"name":`; the name must match exactly, as encoding/json
// prefers an exact match before it folds case.
func (sc *scanner) key(name string) bool {
	if !sc.lit('{') {
		return false
	}
	k, ok := sc.str()
	return ok && k == name && sc.lit(':')
}

// end consumes the closing `}` and requires only whitespace after it.
func (sc *scanner) end() bool {
	if !sc.lit('}') {
		return false
	}
	sc.space()
	return sc.i == len(sc.s)
}

// writeAppended answers 200 with a body appended into w.Body and the
// newline encoding/json's Encoder ends a value with. The handler has
// already turned an encoding error into a 500.
func writeAppended(w *Response, body []byte) {
	w.Status, w.ContentType, w.Body = StatusOK, "application/json", append(body, '\n')
}

// appendQueryResponse appends r as encoding/json marshals it. NaN and ±Inf
// have no JSON form: a response holding one is an error.
func appendQueryResponse(dst []byte, r *QueryResponse) ([]byte, error) {
	if err := finite(r.Fraction, r.Count, r.Paid, r.Remaining); err != nil {
		return dst, err
	}
	dst = appendFloat(append(dst, `{"fraction":`...), r.Fraction)
	dst = appendFloat(append(dst, `,"count":`...), r.Count)
	// Source is a core.Source: plain ASCII that needs no escaping, which
	// TestEncodersMatchEncodingJSON checks for every value there is.
	dst = append(append(dst, `,"source":"`...), r.Source...)
	dst = appendFloat(append(dst, `","paid":`...), r.Paid)
	dst = appendFloat(append(dst, `,"remaining_budget":`...), r.Remaining)
	return append(dst, '}'), nil
}

// appendBatchResponse appends a /query/batch envelope as encoding/json
// marshals BatchQueryResponse{items}. An element's error carries client
// text, so that one object is encoding/json's own output.
func appendBatchResponse(dst []byte, items []BatchItem) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	for i := range items {
		it := &items[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"status":`...), int64(it.Status), 10)
		if it.Result != nil {
			var err error
			if dst, err = appendQueryResponse(append(dst, `,"result":`...), it.Result); err != nil {
				return dst, err
			}
		}
		if it.Error != nil {
			e, err := json.Marshal(it.Error)
			if err != nil {
				return dst, err
			}
			dst = append(append(dst, `,"error":`...), e...)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']', '}'), nil
}

// groupCell is one answered /groupby cell, before it is encoded.
type groupCell struct {
	fraction, count float64
	source          core.Source
}

// groupNames is the JSON text of the names a /groupby body writes, each
// quoted once, as encoding/json quotes a string (HTML characters escaped
// included): attrs[i] is attribute i's name, and levels[i][v] the name of
// its value v, nil for a value without one, which the body writes as its
// number.
type groupNames struct {
	attrs  [][]byte
	levels [][][]byte
}

// quoteNames quotes dom's attribute and level names.
func quoteNames(dom *domain.Domain) groupNames {
	quote := func(s string) []byte {
		b, _ := json.Marshal(s) // a string always marshals
		return b
	}
	var n groupNames
	for i := range dom.NumAttrs() {
		a := dom.Attr(i)
		n.attrs = append(n.attrs, quote(a.Name))
		levels := make([][]byte, a.Card)
		for v, name := range a.Levels {
			levels[v] = quote(name)
		}
		n.levels = append(n.levels, levels)
	}
	return n
}

// appendGroupByResponse appends a /groupby body as encoding/json marshals
// the GroupByResponse of the grouping by attrs whose cells are cells, at
// least one, cell k's values being vals[k*len(attrs):][:len(attrs)], and
// whose payments sum to paid. Without attributes, group_by and every
// row's values are null. NaN and ±Inf have no JSON form: a body holding
// one is an error.
func appendGroupByResponse(dst []byte, names *groupNames, attrs []int, cells []groupCell, vals []int, paid float64) ([]byte, error) {
	if err := finite(paid); err != nil {
		return dst, err
	}
	dst = append(dst, `{"group_by":`...)
	if len(attrs) == 0 {
		dst = append(dst, "null"...)
	} else {
		for j, a := range attrs {
			dst = append(opener(dst, j), names.attrs[a]...)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":`...)
	for k := range cells {
		c := &cells[k]
		if err := finite(c.fraction, c.count); err != nil {
			return dst, err
		}
		dst = append(opener(dst, k), `{"values":`...)
		if len(attrs) == 0 {
			dst = append(dst, "null"...)
		}
		for j, a := range attrs {
			dst = opener(dst, j)
			v := vals[k*len(attrs)+j]
			if name := names.levels[a][v]; name != nil {
				dst = append(dst, name...)
			} else {
				dst = append(strconv.AppendInt(append(dst, '"'), int64(v), 10), '"')
			}
		}
		if len(attrs) > 0 {
			dst = append(dst, ']')
		}
		dst = appendFloat(append(dst, `,"fraction":`...), c.fraction)
		dst = appendFloat(append(dst, `,"count":`...), c.count)
		// A core.Source needs no escaping (appendQueryResponse).
		dst = append(append(append(dst, `,"source":"`...), c.source...), `"}`...)
	}
	dst = appendFloat(append(dst, `],"paid":`...), paid)
	return append(dst, '}'), nil
}

// opener appends what comes before element i of an array: '[' for the
// first, ',' for the others.
func opener(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, '[')
	}
	return append(dst, ',')
}

// finite returns the error encoding/json gives the first of fs that is
// NaN or ±Inf, which have no JSON form.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	return nil
}

// appendFloat appends a finite f as encoding/json formats a float64: the
// shortest round-trip decimal, in exponent form only when 0 < |f| < 1e-6
// or |f| ≥ 1e21, a two-digit exponent trimmed to one (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
