// The wire codec of the hot analyst endpoints (ARCHITECTURE "Server", the
// codec rule): 200 bodies of /query and /query/batch are appended into a
// pooled buffer, byte for byte what encoding/json's Encoder wrote, and
// request bodies of the two fixed shapes are scanned in place. Every other
// body, in either direction, stays with encoding/json.

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// bufPool holds the buffers request bodies are read into and 200 bodies
// are appended into (AvailableBuffer); a buffer goes back empty.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxAnalystBody caps the request body of the analyst-facing endpoints
// (/query, /query/batch, /groupby), whose payloads are SQL text. /append
// has its own cap, maxAppendBody; /restore stays uncapped: its body scales
// with the snapshot.
const maxAnalystBody = 1 << 20

// maxAppendPartitions is how many partitions a /append body has room for
// at the widest counts. A batch is one ingestion epoch, and 64 holds the
// paper's longest evaluated timeline (50 weekly partitions) in one.
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

// bodyErrorStatus is the status of a request body that failed to read or
// decode: 413 past its MaxBytesReader cap, else 400.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeAnalyst reads an analyst-facing POST body into req, a
// *QueryRequest or *BatchQueryRequest. On failure it writes the response
// itself — 405 for another method, 413 for a body past maxAnalystBody, 400
// for malformed JSON — and returns false; no session state has been
// touched at that point.
func decodeAnalyst(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"bad-request", "POST only"})
		return false
	}
	buf := bufPool.Get().(*bytes.Buffer)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxAnalystBody))
	if err == nil {
		err = decodeBody(buf.Bytes(), req)
	}
	buf.Reset()
	bufPool.Put(buf)
	if err == nil {
		return true
	}
	writeJSON(w, bodyErrorStatus(err), ErrorResponse{"bad-request", err.Error()})
	return false
}

// decodeBody decodes one request body: by the scanner when the body has
// the shape it accepts, else by encoding/json, which thereby keeps defining
// unknown-field, key-case, escape, duplicate-key and trailing-data
// behaviour. FuzzDecodeAnalyst pins that the two agree where both accept.
func decodeBody(body []byte, req any) error {
	if scanRequest(string(body), req) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scanRequest fills req with substrings of s when s is exactly
// {"sql":"…"} or {"queries":["…",…]} — whichever req is — with JSON
// whitespace between tokens; otherwise it reports false, req untouched.
func scanRequest(s string, req any) bool {
	sc := scanner{s: s}
	switch req := req.(type) {
	case *QueryRequest:
		if !sc.key("sql") {
			return false
		}
		sql, ok := sc.str()
		if !ok || !sc.end() {
			return false
		}
		req.SQL = sql
		return true
	case *BatchQueryRequest:
		if !sc.key("queries") || !sc.lit('[') {
			return false
		}
		queries := []string{}
		for !sc.lit(']') {
			if len(queries) > 0 && !sc.lit(',') {
				return false
			}
			q, ok := sc.str()
			if !ok {
				return false
			}
			queries = append(queries, q)
		}
		if !sc.end() {
			return false
		}
		req.Queries = queries
		return true
	}
	return false
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

// writeAppended writes, in one Write, a 200 body appended into buf's
// AvailableBuffer and the newline encoding/json's Encoder ends a value
// with. The handler has already turned an encoding error into a 500:
// writeJSON, encoding after WriteHeader(200), left a 200 with an empty body.
func writeAppended(w http.ResponseWriter, buf *bytes.Buffer, body []byte) {
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	buf.Grow(len(body)) // a body that outgrew buf: the next one will fit
	bufPool.Put(buf)
}

// appendQueryResponse appends r as encoding/json marshals it. NaN and ±Inf
// have no JSON form: a response holding one is an error.
func appendQueryResponse(dst []byte, r *QueryResponse) ([]byte, error) {
	for _, f := range [...]float64{r.Fraction, r.Count, r.Paid, r.Remaining} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
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
