// The HTTP/1.1 front end (ARCHITECTURE "Server"): turbo-server's own
// listener, on sock.go's sockets. It reads a request head into a fixed
// buffer, the body whole under its route's cap, runs the route's handler
// and writes the response in one Write. Keep-alive and pipelined requests
// are answered in order, one at a time per connection. What it refuses,
// it refuses from the head and closes the connection: a head past maxHead
// (431), a malformed one (400), a Transfer-Encoding or a POST without a
// Content-Length (411, in Handle), and a body past its route's cap (413,
// in Handle).

package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/stream"
)

// Status codes the server sends.
const (
	StatusOK                          = 200
	StatusBadRequest                  = 400
	StatusNotFound                    = 404
	StatusMethodNotAllowed            = 405
	StatusConflict                    = 409
	StatusLengthRequired              = 411
	StatusRequestEntityTooLarge       = 413
	StatusUnprocessableEntity         = 422
	StatusTooManyRequests             = 429
	StatusRequestHeaderFieldsTooLarge = 431
	StatusInternalServerError         = 500
)

var statusText = map[int]string{
	StatusOK:                          "OK",
	StatusBadRequest:                  "Bad Request",
	StatusNotFound:                    "Not Found",
	StatusMethodNotAllowed:            "Method Not Allowed",
	StatusConflict:                    "Conflict",
	StatusLengthRequired:              "Length Required",
	StatusRequestEntityTooLarge:       "Request Entity Too Large",
	StatusUnprocessableEntity:         "Unprocessable Entity",
	StatusTooManyRequests:             "Too Many Requests",
	StatusRequestHeaderFieldsTooLarge: "Request Header Fields Too Large",
	StatusInternalServerError:         "Internal Server Error",
}

// The methods the routes tell apart.
const (
	MethodGet  = "GET"
	MethodPost = "POST"
)

// maxHead caps a request head: request line, header lines and the blank
// line. It is also the connection's read buffer, so a head is parsed
// where it was read.
const maxHead = 8 << 10

// keepBuf is the largest body buffer a connection keeps for its next
// request; a /snapshot or /restore body past it is dropped after use.
const keepBuf = 64 << 10

// maxKeptStatements is the largest batch whose scratch a connection keeps
// for its next request.
const maxKeptStatements = 1024

// A connection the server closes after a response first lingers (linger)
// for this long or this many bytes of unread input: enough for a client
// that writes a whole body past the analyst cap before it reads the 413 to
// finish writing it, and then read the 413.
const (
	lingerFor   = 500 * time.Millisecond
	lingerBytes = 4 << 20
)

// ErrServerClosed is what Serve returns after Shutdown.
var ErrServerClosed = errors.New("httpd: server closed")

// errShortBody is a body that ended before its Content-Length.
var errShortBody = errors.New("httpd: request body shorter than its Content-Length")

// Request is one request as a handler sees it.
type Request struct {
	Method, Path string
	// Length is the body's length as the head gives it: -1 for a POST
	// without a Content-Length, or a request with a Transfer-Encoding.
	Length int64
	// Body is the whole body once Handle has read it. Its array is reused
	// for the connection's next request: a handler keeps no part of it,
	// and no string that views it (codec.go) outlives the handler.
	Body []byte
	// scratch is the connection's reusable handler state, made on first
	// use: a Request built per call (internal/server's adapter) gets its
	// own.
	scratch *scratch
}

// next readies r for the connection's next request, keeping its body's
// array and its scratch.
func (r *Request) next(method, path string, length int64) {
	*r = Request{Method: method, Path: path, Length: length, Body: r.Body[:0], scratch: r.scratch}
}

// scratch is what the handlers reuse from one request to the next on a
// connection, so an exact hit allocates nothing and a miss or an /append
// nothing it keeps: the cache key of the statement being answered and the
// query a miss builds over it (the answer step), a batch's statements,
// outcomes, items and responses, a /groupby's attributes and cells, and
// an /append's batch. Nothing outside the handler keeps any of it past
// the request.
type scratch struct {
	key   []byte
	q     query.Query
	sqls  []string
	res   []core.BatchResult
	items []BatchItem
	resps []QueryResponse
	// groupBy holds a /groupby's grouped attributes, cells its answered
	// cells and vals their values.
	groupBy []int
	cells   []groupCell
	vals    []int
	// append is an /append's decoded batch, counts the arrays its
	// partitions' counts are decoded into (one per partition slot), and
	// arrivals the batch as it is submitted.
	append   AppendRequest
	counts   [][]int
	arrivals []stream.Arrival
}

// decodeAppend decodes an /append body into the scratch's batch, emptied
// over its whole capacity first, so that the decode is the one into a
// fresh request.
func (sc *scratch) decodeAppend(body string) error {
	clear(sc.append.Partitions[:cap(sc.append.Partitions)])
	sc.append.Partitions = sc.append.Partitions[:0]
	return scanAppend(body, &sc.append, &sc.counts)
}

// keepAppend drops what an /append grew the scratch's batch past the
// widest one the route takes, maxAppendPartitions partitions of dom
// counts each, with room for the growth that reached it.
func (sc *scratch) keepAppend(dom int) {
	if cap(sc.append.Partitions) > 2*maxAppendPartitions {
		sc.append.Partitions = nil
	}
	for i, c := range sc.counts {
		if cap(c) > 2*dom {
			sc.counts[i] = nil
		}
	}
}

// scratchFor returns r's scratch, making it on first use.
func (r *Request) scratchFor() *scratch {
	if r.scratch == nil {
		r.scratch = new(scratch)
	}
	return r.scratch
}

// Response is what a handler answers: a status, the one header the routes
// set, and the body. Its Body array is reused like Request.Body.
type Response struct {
	Status      int
	ContentType string
	Body        []byte
}

// route is one endpoint: its handler, the most body bytes it reads, and
// optionally a refusal it can give from the head alone.
type route struct {
	serve  func(*Server, *Response, *Request)
	limit  func(*Server) int64
	refuse func(*Server, *Response, *Request) bool
}

var routes = map[string]route{
	"/query":       {serve: (*Server).handleQuery, limit: analystLimit},
	"/query/batch": {serve: (*Server).handleQueryBatch, limit: analystLimit},
	"/groupby":     {serve: (*Server).handleGroupBy, limit: analystLimit},
	"/append":      {serve: (*Server).handleAppend, limit: (*Server).appendLimit},
	"/budget":      {serve: (*Server).handleBudget, limit: analystLimit},
	"/schema":      {serve: (*Server).handleSchema, limit: analystLimit},
	"/snapshot":    {serve: (*Server).handleSnapshot, limit: analystLimit},
	"/restore":     {serve: (*Server).handleRestore, limit: noLimit, refuse: (*Server).refuseRestore},
}

func analystLimit(*Server) int64 { return maxAnalystBody }

func noLimit(*Server) int64 { return 1<<63 - 1 }

func (s *Server) appendLimit() int64 { return maxAppendBody(s.sess.Dataset().Domain().Size()) }

// Handle answers one request. It checks the head first — 404 for an
// unknown path, 411 for a body of unknown length, 413 past the route's
// cap, and the route's own refusal — and answers those without reading
// the body. Otherwise it reads r.Length bytes of body whole from body
// into r.Body, then runs the route's handler. An error means the body
// ended early or Shutdown has begun: w holds no answer, and the caller
// drops the connection.
func (s *Server) Handle(w *Response, r *Request, body io.Reader) error {
	*w = Response{Body: w.Body[:0]}
	rt, ok := s.routes[r.Path]
	switch {
	case !ok:
		writeError(w, StatusNotFound, "bad-request", "no such endpoint")
		return nil
	case r.Length < 0:
		writeError(w, StatusLengthRequired, "bad-request",
			"a request body needs a Content-Length and no Transfer-Encoding")
		return nil
	case r.Length > rt.limit(s):
		writeError(w, StatusRequestEntityTooLarge, "bad-request", "request body too large")
		return nil
	case rt.refuse != nil && rt.refuse(s, w, r):
		return nil
	}
	var err error
	if r.Body, err = readBody(r.Body[:0], body, r.Length); err != nil {
		return err
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.down.Load() {
		return ErrServerClosed
	}
	rt.serve(s, w, r)
	return nil
}

// readBody appends n bytes of body to b and returns them, or
// errShortBody if body ends first. b grows no faster than bytes arrive, so
// a Content-Length is never taken on trust: a body of at most keepBuf
// bytes is read into b's array at once, a longer one in steps that at
// most double it.
func readBody(b []byte, body io.Reader, n int64) ([]byte, error) {
	for int64(len(b)) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, int(min(n-int64(len(b)), int64(max(len(b), keepBuf)))))
		}
		m, err := io.ReadFull(body, b[len(b):int(min(n, int64(cap(b))))])
		b = b[:len(b)+m]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return b, errShortBody
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// Serve accepts connections on l until Shutdown, serving each on a
// goroutine of its own, and then returns ErrServerClosed. A server is
// served on one listener.
func (s *Server) Serve(l *Listener) error {
	s.mu.Lock()
	s.ln = l
	s.mu.Unlock()
	if s.down.Load() {
		l.Close()
		return ErrServerClosed
	}
	for {
		c, err := l.accept()
		if err == nil && s.track(c) {
			go s.serveConn(c)
			continue
		}
		if c != nil {
			c.Close()
		}
		if s.down.Load() {
			return ErrServerClosed
		}
		if errors.Is(err, os.ErrClosed) {
			return err
		}
		// Out of file descriptors: the listener itself is fine, and the
		// connection waits in its queue.
		time.Sleep(10 * time.Millisecond)
	}
}

// track records an accepted connection for Shutdown to close; after
// Shutdown it refuses.
func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// Shutdown stops the server. It closes the listener, waits for every
// handler that has started, and then closes every connection, whatever
// its client is doing: idle, mid-head, mid-body, or not reading its
// response. It waits for no client, and once it has begun waiting no
// handler starts, so what it returns to — the checkpoint — never races a
// payment.
func (s *Server) Shutdown() {
	s.down.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

// serveConn answers one connection's requests in order until the client
// closes it, a refusal or Connection: close ends it, or Shutdown. A
// handler's panic ends its own connection only.
func (s *Server) serveConn(c *conn) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("httpd: panic serving %s: %v\n%s", c.peer, p, debug.Stack())
		}
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, maxHead)
	var (
		req  Request
		resp Response
		out  []byte
		body io.LimitedReader
	)
	// The first head is timed from the accept; a later one from its first
	// byte, so an idle keep-alive connection waits without a deadline.
	deadline := time.Now().Add(s.headTimeout)
	for {
		h, err := s.readHead(c, br, deadline)
		if err != nil {
			return
		}
		deadline = time.Time{}
		if h.status != 0 {
			resp = Response{Body: resp.Body[:0]}
			writeError(&resp, h.status, "bad-request", h.why)
			if _, err := c.Write(appendResponse(out[:0], &resp, true, false)); err == nil {
				linger(c)
			}
			return
		}
		req.next(h.method, h.path, h.length)
		body = io.LimitedReader{R: br, N: max(h.length, 0)}
		var src io.Reader = &body
		if h.expect {
			src = &continuer{c: c, r: &body}
		}
		if err := s.Handle(&resp, &req, src); err != nil {
			return
		}
		// A body left unread, or of unknown length, leaves the stream
		// unframed: the connection ends with this response.
		closing := h.close || h.length < 0 || body.N > 0
		out = appendResponse(out[:0], &resp, closing, h.method == "HEAD")
		if _, err := c.Write(out); err != nil {
			return
		}
		if closing {
			linger(c)
			return
		}
		if cap(req.Body) > keepBuf {
			req.Body = nil
		}
		if req.scratch != nil && cap(req.scratch.sqls) > maxKeptStatements {
			req.scratch = nil
		}
		if cap(resp.Body) > keepBuf {
			resp.Body, out = nil, nil
		}
	}
}

// linger ends the connection's writing side and discards what the client
// still sends, for at most lingerFor and lingerBytes, before the caller
// closes it: closing a socket with unread input resets it, and a reset
// fails the client's write, or discards the response before the client
// has read it.
func linger(c *conn) {
	_ = c.closeWrite()
	_ = c.SetReadDeadline(time.Now().Add(lingerFor))
	buf := make([]byte, 4<<10)
	for n := 0; n < lingerBytes; {
		m, err := c.Read(buf)
		if err != nil {
			return
		}
		n += m
	}
}

// readHead waits for the next request head and parses it. With a zero
// deadline it first waits for one byte with none, then gives the rest of
// the head s.headTimeout; a head already buffered costs no deadline at
// all. The head's bytes are consumed; the body's are left in br.
func (s *Server) readHead(c *conn, br *bufio.Reader, deadline time.Time) (head, error) {
	if deadline.IsZero() {
		if _, err := br.Peek(1); err != nil {
			return head{}, err
		}
	}
	armed := false
	for {
		buf, _ := br.Peek(br.Buffered())
		if n := headLen(buf); n > 0 {
			h := parseHead(buf[:n])
			if _, err := br.Discard(n); err != nil {
				return head{}, err
			}
			if armed {
				c.SetReadDeadline(time.Time{})
			}
			return h, nil
		}
		if len(buf) == maxHead {
			return head{status: StatusRequestHeaderFieldsTooLarge, why: "request head past 8 KiB"}, nil
		}
		if !armed {
			if deadline.IsZero() {
				deadline = time.Now().Add(s.headTimeout)
			}
			c.SetReadDeadline(deadline)
			armed = true
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return head{}, err
		}
	}
}

// continuer sends "100 Continue" before the first read of a body whose
// client waits for one (Expect: 100-continue). A request refused from its
// head never reads its body, so its client never gets the go-ahead.
type continuer struct {
	c    io.Writer
	r    io.Reader
	sent bool
}

func (k *continuer) Read(p []byte) (int, error) {
	if !k.sent {
		k.sent = true
		if _, err := io.WriteString(k.c, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	return k.r.Read(p)
}

// appendResponse appends the response's head and, unless headOnly, its
// body.
func appendResponse(dst []byte, w *Response, closing, headOnly bool) []byte {
	dst = strconv.AppendInt(append(dst, "HTTP/1.1 "...), int64(w.Status), 10)
	dst = append(append(append(dst, ' '), statusText[w.Status]...), "\r\n"...)
	if w.ContentType != "" {
		dst = append(append(append(dst, "Content-Type: "...), w.ContentType...), "\r\n"...)
	}
	dst = time.Now().UTC().AppendFormat(append(dst, "Date: "...), "Mon, 02 Jan 2006 15:04:05 GMT")
	dst = strconv.AppendInt(append(dst, "\r\nContent-Length: "...), int64(len(w.Body)), 10)
	if closing {
		dst = append(dst, "\r\nConnection: close"...)
	}
	dst = append(dst, "\r\n\r\n"...)
	if headOnly {
		return dst
	}
	return append(dst, w.Body...)
}

// head is what the front end knows of a request before its body.
type head struct {
	method, path string
	// length is the body's Content-Length, 0 when a request other than a
	// POST gives none, and -1 for a POST without one or any request with
	// a Transfer-Encoding.
	length int64
	// close: Connection: close, or HTTP/1.0 without keep-alive.
	close bool
	// expect: Expect: 100-continue on HTTP/1.1.
	expect bool
	// status, when not 0, refuses the request (400 or 431); why says why.
	status int
	why    string
}

// headLen is the length of the head at the start of b, through the blank
// line that ends it, or 0 when b does not hold all of it.
func headLen(b []byte) int {
	for i := 0; ; {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return 0
		}
		line := b[i : i+j]
		i += j + 1
		if len(line) == 0 || (len(line) == 1 && line[0] == '\r') {
			return i
		}
	}
}

// parseHead parses a whole head: the request line, then header lines,
// then the blank line. Lines end in CRLF or a bare LF. Of the headers it
// reads Content-Length, Transfer-Encoding, Connection and Expect, and
// ignores the rest.
func parseHead(b []byte) head {
	bad := func(why string) head { return head{status: StatusBadRequest, why: why} }
	line, b := cutLine(b)
	verb, rest, ok1 := bytes.Cut(line, []byte{' '})
	target, version, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok1 || !ok2 || !isToken(verb) || len(target) == 0 {
		return bad("malformed request line")
	}
	if string(version) != "HTTP/1.1" && string(version) != "HTTP/1.0" {
		return bad("not HTTP/1.1 or HTTP/1.0")
	}
	var h head
	if i := bytes.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	h.method, h.path = intern(verb), intern(target)
	length, te, keepAlive, expect := int64(-1), false, false, false
	for {
		line, b = cutLine(b)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte{':'})
		if !ok || !isToken(name) {
			return bad("malformed header line")
		}
		value = bytes.Trim(value, " \t")
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, ok := parseLength(value)
			if !ok || (length >= 0 && n != length) {
				return bad("invalid or ambiguous Content-Length")
			}
			length = n
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			te = true
		case bytes.EqualFold(name, []byte("Connection")):
			for rest := value; len(rest) > 0; {
				var tok []byte
				tok, rest, _ = bytes.Cut(rest, []byte{','})
				tok = bytes.Trim(tok, " \t")
				h.close = h.close || bytes.EqualFold(tok, []byte("close"))
				keepAlive = keepAlive || bytes.EqualFold(tok, []byte("keep-alive"))
			}
		case bytes.EqualFold(name, []byte("Expect")):
			expect = bytes.EqualFold(value, []byte("100-continue"))
		}
	}
	if string(version) == "HTTP/1.0" {
		h.close = h.close || !keepAlive
	} else {
		h.expect = expect
	}
	switch {
	case te:
		h.length = -1
	case length >= 0:
		h.length = length
	case h.method == MethodPost:
		h.length = -1
	}
	return h
}

// interned holds the methods and paths a head names as strings, so that
// parsing a head of a known route allocates nothing.
var interned = func() map[string]string {
	m := map[string]string{MethodGet: MethodGet, MethodPost: MethodPost, "HEAD": "HEAD"}
	for path := range routes {
		m[path] = path
	}
	return m
}()

// intern returns b as a string: the interned one, or a copy.
func intern(b []byte) string {
	if s, ok := interned[string(b)]; ok {
		return s
	}
	return string(b)
}

// cutLine splits off b's first line, without its CRLF or LF.
func cutLine(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), rest
}

// parseLength parses a Content-Length value: 1 to 18 decimal digits, so
// no sign, no list and no overflow.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// isToken reports whether b is non-empty and holds no space, tab or
// control byte: looser than an HTTP token, and enough to refuse a header
// name with space before its colon, and a folded line.
func isToken(b []byte) bool {
	for _, c := range b {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return len(b) > 0
}
