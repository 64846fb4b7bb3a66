// The wire codec (ARCHITECTURE "Server", the codec rule): every body
// turbo-server writes but a snapshot is appended into the connection's
// response buffer, byte for byte what encoding/json's Encoder wrote, and
// every JSON body it reads is decoded by scan.go's scanner, its strings
// viewing the body. encoding/json is the oracle of both, in tests only.

package httpd

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
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
// batch is applied whole, and 64 holds the paper's longest
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

// decodeSQL decodes the statement of a /query or /groupby body, which
// views r.Body unless it needed unescaping, and must not outlive the
// request. On failure it writes the response itself — 405 for another
// method, 400 for a body that is not a QueryRequest — and returns false;
// no session state has been touched at that point.
func decodeSQL(w *Response, r *Request) (string, bool) {
	var sql string
	ok := posted(w, r) && decoded(w, scanQuery(view(r.Body), &sql))
	return sql, ok
}

// decodeQueries is decodeSQL for a /query/batch body: its statements, in
// dst's array, which must hold "" over all its capacity.
func decodeQueries(w *Response, r *Request, dst []string) ([]string, bool) {
	if !posted(w, r) {
		return dst, false
	}
	sqls, err := scanQueries(view(r.Body), dst)
	return sqls, decoded(w, err)
}

// posted answers 405 to any request but a POST.
func posted(w *Response, r *Request) bool {
	if r.Method != MethodPost {
		writeError(w, StatusMethodNotAllowed, "bad-request", "POST only")
		return false
	}
	return true
}

// decoded answers 400 with a decode error.
func decoded(w *Response, err error) bool {
	if err != nil {
		writeError(w, StatusBadRequest, "bad-request", err.Error())
		return false
	}
	return true
}

// view returns b's bytes as a string without copying them. The string
// is valid only while b's array is not written: a view of a request body
// must not outlive the request.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// writeBody answers status with a body appended into w.Body and the
// newline encoding/json's Encoder ends a value with. The handler has
// already turned an encoding error into a 500.
func writeBody(w *Response, status int, body []byte) {
	w.Status, w.ContentType, w.Body = status, "application/json", append(body, '\n')
}

// writeError answers status with an ErrorResponse body.
func writeError(w *Response, status int, kind, msg string) {
	writeBody(w, status, appendError(w.Body[:0], &ErrorResponse{kind, msg}))
}

// appendError appends e as encoding/json marshals it.
func appendError(dst []byte, e *ErrorResponse) []byte {
	dst = appendString(append(dst, `{"kind":`...), e.Kind)
	dst = appendString(append(dst, `,"message":`...), e.Message)
	return append(dst, '}')
}

// appendQueryResponse appends r as encoding/json marshals it. NaN and ±Inf
// have no JSON form: a response holding one is an error.
func appendQueryResponse(dst []byte, r *QueryResponse) ([]byte, error) {
	dst, err := appendAnswer(dst, r)
	if err != nil {
		return dst, err
	}
	return append(appendFloat(dst, r.Remaining), '}'), nil
}

// appendAnswer appends r as encoding/json marshals it up to its last
// value, remaining_budget's, which the caller appends and closes.
func appendAnswer(dst []byte, r *QueryResponse) ([]byte, error) {
	if err := finite(r.Fraction, r.Count, r.Paid, r.Remaining); err != nil {
		return dst, err
	}
	dst = appendFloat(append(dst, `{"fraction":`...), r.Fraction)
	dst = appendFloat(append(dst, `,"count":`...), r.Count)
	// Source is a core.Source: plain ASCII that needs no escaping, which
	// TestEncodersMatchEncodingJSON checks for every value there is.
	dst = append(append(dst, `,"source":"`...), r.Source...)
	dst = appendFloat(append(dst, `","paid":`...), r.Paid)
	return append(dst, `,"remaining_budget":`...), nil
}

// appendBatchResponse appends a /query/batch envelope as encoding/json
// marshals BatchQueryResponse{items}. Every answered element of a batch
// carries the same budget read, so a remaining_budget is formatted only
// when it differs from the one before, whose bytes are copied otherwise.
func appendBatchResponse(dst []byte, items []BatchItem) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	var last *QueryResponse // the remaining_budget at dst[lo:hi]
	lo, hi := 0, 0
	for i := range items {
		it := &items[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"status":`...), int64(it.Status), 10)
		if r := it.Result; r != nil {
			var err error
			if dst, err = appendAnswer(append(dst, `,"result":`...), r); err != nil {
				return dst, err
			}
			// Bits, not ==: 0 and -0 are equal but read "0" and "-0".
			if last != nil && math.Float64bits(r.Remaining) == math.Float64bits(last.Remaining) {
				dst = append(dst, dst[lo:hi]...)
			} else {
				lo, last = len(dst), r
				dst = appendFloat(dst, r.Remaining)
				hi = len(dst)
			}
			dst = append(dst, '}')
		}
		if it.Error != nil {
			dst = appendError(append(dst, `,"error":`...), it.Error)
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
	quote := func(s string) []byte { return appendString(nil, s) }
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

// errNotFinite is what an appender refuses NaN or ±Inf with: they have
// no JSON form, and a response holding one is a 500 "internal".
var errNotFinite = errors.New("unsupported value")

// finite returns the error encoding/json gives the first of fs that is
// NaN or ±Inf, as an errNotFinite.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("%w: %s", errNotFinite, strconv.FormatFloat(f, 'g', -1, 64))
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

// appendString appends s quoted as encoding/json quotes a string: '"',
// '\' and the control characters escaped, and with them the HTML
// characters '<', '>' and '&', U+2028 and U+2029; each byte that is not
// UTF-8 becomes \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendInt appends member, an object member's name with what comes
// before it (`{"name":` or `,"name":`), and the member's value v.
func appendInt(dst []byte, member string, v int64) []byte {
	return strconv.AppendInt(append(dst, member...), v, 10)
}

// appendAppendResponse appends r as encoding/json marshals it.
func appendAppendResponse(dst []byte, r *AppendResponse) []byte {
	dst = appendInt(dst, `{"start":`, int64(r.Start))
	dst = appendInt(dst, `,"end":`, int64(r.End))
	dst = appendInt(dst, `,"partitions":`, int64(r.Partitions))
	return append(dst, '}')
}

// appendRestoreResponse appends r as encoding/json marshals it.
func appendRestoreResponse(dst []byte, r *RestoreResponse) ([]byte, error) {
	if err := finite(r.AverageSpent); err != nil {
		return dst, err
	}
	dst = appendInt(dst, `{"partitions":`, int64(r.Partitions))
	dst = appendFloat(append(dst, `,"average_spent":`...), r.AverageSpent)
	return append(dst, '}'), nil
}

// appendBudgetResponse appends r as encoding/json marshals it, by_source
// in key order.
func appendBudgetResponse(dst []byte, r *BudgetResponse) ([]byte, error) {
	if err := finite(r.Global, r.AverageSpent, r.MaxSpent); err != nil {
		return dst, err
	}
	if err := finite(r.PerPartition...); err != nil {
		return dst, err
	}
	dst = appendFloat(append(dst, `{"global":`...), r.Global)
	dst = appendFloat(append(dst, `,"average_spent":`...), r.AverageSpent)
	dst = appendFloat(append(dst, `,"max_spent":`...), r.MaxSpent)
	dst = append(dst, `,"per_partition":`...)
	if r.PerPartition == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range r.PerPartition {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = appendInt(dst, `,"queries_answered":`, r.Queries)
	dst = appendInt(dst, `,"answers":`, r.Answers)
	dst = appendInt(dst, `,"refusals":`, r.Refusals)
	dst = append(dst, `,"by_source":`...)
	if r.BySource == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '{')
		for i, src := range slices.Sorted(maps.Keys(r.BySource)) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(appendString(dst, src), ":", r.BySource[src])
		}
		dst = append(dst, '}')
	}
	if rdp := r.RDP; rdp != nil {
		if err := finite(rdp.Delta); err != nil {
			return dst, err
		}
		dst = appendFloat(append(dst, `,"rdp":{"delta":`...), rdp.Delta)
		dst = append(appendInt(dst, `,"live_mechanisms":`, int64(rdp.LiveMechanisms)), '}')
	}
	return append(dst, '}'), nil
}

// appendSchemaResponse appends r as encoding/json marshals it.
func appendSchemaResponse(dst []byte, r *SchemaResponse) ([]byte, error) {
	dst = appendString(append(dst, `{"table":`...), r.Table)
	dst = appendString(append(dst, `,"domain":`...), r.Domain)
	dst = append(dst, `,"attributes":`...)
	if r.Attributes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, a := range r.Attributes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, a)
		}
		dst = append(dst, ']')
	}
	dst = appendInt(dst, `,"rows":`, int64(r.Rows))
	dst = appendInt(dst, `,"partitions":`, int64(r.Partitions))
	dst = append(dst, `,"cache":`...)
	if c := r.Cache; c == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendString(append(dst, `{"backend":`...), c.Backend)
		dst = appendInt(dst, `,"entries":`, int64(c.Entries))
		dst = appendInt(dst, `,"bytes":`, int64(c.Bytes))
		dst = appendInt(dst, `,"resident_bytes":`, int64(c.ResidentBytes))
		if c.CapBytes != 0 {
			dst = appendInt(dst, `,"cap_bytes":`, int64(c.CapBytes))
		}
		dst = appendInt(dst, `,"hits":`, c.Hits)
		dst = appendInt(dst, `,"misses":`, c.Misses)
		dst = appendInt(dst, `,"evictions":`, c.Evictions)
		dst = append(appendInt(dst, `,"set_errors":`, c.SetErrors), '}')
	}
	if in := r.Ingestion; in != nil {
		dst = appendInt(dst, `,"ingestion":{"batches":`, in.Batches)
		dst = appendInt(dst, `,"partitions_ingested":`, in.Partitions)
		dst = appendInt(dst, `,"rows_ingested":`, in.Rows)
		dst = appendInt(dst, `,"warm_started_leaves":`, in.WarmStarted)
		dst = append(appendInt(dst, `,"flight_deduped":`, in.FlightDeduped), '}')
	}
	return append(dst, '}'), nil
}
