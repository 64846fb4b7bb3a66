package httpd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/domain"
)

// addCount loads count rows of the encoded value bin into partition p of
// ds: a one-hot BulkLoad.
func addCount(ds *dataset.Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

// newTestServer builds a server over a 4-partition covid-like session.
func newTestServer(t *testing.T, epsG float64) *Server {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4},
	)
	ds := dataset.New(dom, 4)
	for w := 0; w < 4; w++ {
		for a := 0; a < 4; a++ {
			_ = addCount(ds, w, dom.Encode([]int{1, a}), 1000+100*a)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), 4000-150*a)
		}
	}
	sess, err := core.NewSession(core.Config{
		Mode: core.Partitioned, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: epsG, Seed: 13,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sess, "covid")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// listen serves srv on a loopback port until the test ends and returns
// the address.
func listen(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-served; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return l.Addr().String()
}

// client is one raw connection to the listener.
type client struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{t: t, c: c, br: bufio.NewReader(c)}
}

func (k *client) send(raw string) {
	k.t.Helper()
	if _, err := io.WriteString(k.c, raw); err != nil {
		k.t.Fatal(err)
	}
}

// read reads one response; its body is read whole.
func (k *client) read() (*http.Response, string) {
	k.t.Helper()
	_ = k.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		k.t.Fatal(err)
	}
	return resp, string(body)
}

// closed reports whether the server ends the connection (EOF or a reset)
// within wait, with nothing more to read.
func (k *client) closed(wait time.Duration) bool {
	_ = k.c.SetReadDeadline(time.Now().Add(wait))
	n, err := k.br.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	return n == 0 && err != nil
}

func post(path, body string, headers ...string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: t\r\n" + strings.Join(headers, "") +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

const querySQL = `{"sql":"SELECT COUNT(*) FROM covid WHERE positive = 1"}`

// TestKeepAliveAndPipelining: requests written back to back on one
// connection, before any answer is read, are answered in order, and the
// connection then serves the next request.
func TestKeepAliveAndPipelining(t *testing.T) {
	k := dial(t, listen(t, newTestServer(t, 100)))
	k.send(post("/query", querySQL) + "GET /budget HTTP/1.1\r\nHost: t\r\n\r\n" + post("/query", querySQL) +
		"GET /nowhere?x=1 HTTP/1.1\r\n\r\n")
	for i, want := range []string{`"source":"tree"`, `"queries_answered":1`, `"source":"exact-hit"`, `"no such endpoint"`} {
		resp, body := k.read()
		if !strings.Contains(body, want) || resp.Close {
			t.Fatalf("response %d: %d close=%v %s, want %s on an open connection", i, resp.StatusCode, resp.Close, body, want)
		}
	}
	if resp, body := k.read2(post("/query/batch", `{"queries":["SELECT COUNT(*) FROM covid"]}`)); resp.StatusCode != 200 {
		t.Fatalf("batch after the pipeline: %d %s", resp.StatusCode, body)
	}
}

func (k *client) read2(raw string) (*http.Response, string) {
	k.t.Helper()
	k.send(raw)
	return k.read()
}

// TestConnectionEnds: Connection: close, and HTTP/1.0 without keep-alive,
// end the connection after the response; HTTP/1.0 with keep-alive does
// not. A HEAD gets the head alone.
func TestConnectionEnds(t *testing.T) {
	addr := listen(t, newTestServer(t, 100))
	for _, c := range []struct {
		raw   string
		close bool
	}{
		{"GET /schema HTTP/1.1\r\nConnection: close\r\n\r\n", true},
		{"GET /schema HTTP/1.1\r\nConnection: Keep-Alive, CLOSE\r\n\r\n", true},
		{"GET /schema HTTP/1.0\r\n\r\n", true},
		{"GET /schema HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", false},
		{"GET /schema HTTP/1.1\r\n\r\n", false},
	} {
		k := dial(t, addr)
		resp, body := k.read2(c.raw)
		if resp.StatusCode != 200 || !strings.Contains(body, `"table":"covid"`) {
			t.Fatalf("%q: %d %s", c.raw, resp.StatusCode, body)
		}
		if got := k.closed(200 * time.Millisecond); got != c.close {
			t.Errorf("%q: connection closed = %v, want %v", c.raw, got, c.close)
		}
	}
	k := dial(t, addr)
	k.send("HEAD /schema HTTP/1.1\r\n\r\n")
	head, err := k.br.ReadString('\n')
	if err != nil || !strings.HasPrefix(head, "HTTP/1.1 405 ") {
		t.Fatalf("HEAD: %q %v", head, err)
	}
	for line := ""; line != "\r\n"; {
		if line, err = k.br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	if resp, body := k.read2("GET /budget HTTP/1.1\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatalf("after HEAD: %d %s, want the next response right after the head", resp.StatusCode, body)
	}
}

// TestHeadRefusals: what the front end refuses from the head it answers
// with its status and a JSON error, and then it closes the connection.
func TestHeadRefusals(t *testing.T) {
	addr := listen(t, newTestServer(t, 100))
	big := strings.Repeat("a", maxAnalystBody+1)
	for _, c := range []struct {
		name, raw string
		status    int
	}{
		{"request line", "GET /budget\r\n\r\n", StatusBadRequest},
		{"version", "GET /budget HTTP/2.0\r\n\r\n", StatusBadRequest},
		{"method", "G\x01T /budget HTTP/1.1\r\n\r\n", StatusBadRequest},
		{"header line", "GET /budget HTTP/1.1\r\nNo colon here\r\n\r\n", StatusBadRequest},
		{"space before colon", "GET /budget HTTP/1.1\r\nHost : t\r\n\r\n", StatusBadRequest},
		{"folded header", "GET /budget HTTP/1.1\r\nX-A: 1\r\n  2\r\n\r\n", StatusBadRequest},
		{"two lengths", "POST /query HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd", StatusBadRequest},
		{"signed length", "POST /query HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc", StatusBadRequest},
		{"length list", "POST /query HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc", StatusBadRequest},
		{"huge length", "POST /query HTTP/1.1\r\nContent-Length: 9999999999999999999\r\n\r\n", StatusBadRequest},
		{"no length", "POST /query HTTP/1.1\r\n\r\n" + querySQL, StatusLengthRequired},
		{"chunked", "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nabcde\r\n0\r\n\r\n", StatusLengthRequired},
		{"chunked with length", "POST /query HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", StatusLengthRequired},
		{"body past the cap", post("/query", big), StatusRequestEntityTooLarge},
		{"head past 8 KiB", "GET /budget HTTP/1.1\r\nX-Pad: " + strings.Repeat("p", maxHead) + "\r\n\r\n", StatusRequestHeaderFieldsTooLarge},
	} {
		k := dial(t, addr)
		resp, body := k.read2(c.raw)
		var er ErrorResponse
		if err := json.Unmarshal([]byte(body), &er); resp.StatusCode != c.status || err != nil || er.Kind != "bad-request" || !resp.Close {
			t.Errorf("%s: %d close=%v %s (%v), want %d bad-request and Connection: close", c.name, resp.StatusCode, resp.Close, body, err, c.status)
		}
		if !k.closed(time.Second) {
			t.Errorf("%s: the connection stays open", c.name)
		}
	}
}

// TestExpectContinue: a client that waits for "100 Continue" before its
// body gets it, then its answer; one refused from its head never gets
// it.
func TestExpectContinue(t *testing.T) {
	addr := listen(t, newTestServer(t, 100))
	k := dial(t, addr)
	k.send("POST /query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: " + strconv.Itoa(len(querySQL)) + "\r\n\r\n")
	if line, err := k.br.ReadString('\n'); err != nil || line != "HTTP/1.1 100 Continue\r\n" {
		t.Fatalf("interim response %q %v", line, err)
	}
	if line, _ := k.br.ReadString('\n'); line != "\r\n" {
		t.Fatalf("interim response does not end: %q", line)
	}
	if resp, body := k.read2(querySQL); resp.StatusCode != 200 {
		t.Fatalf("after 100 Continue: %d %s", resp.StatusCode, body)
	}
	k.send("POST /query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: " + strconv.Itoa(maxAnalystBody+1) + "\r\n\r\n")
	if resp, body := k.read(); resp.StatusCode != StatusRequestEntityTooLarge {
		t.Fatalf("oversize with Expect: %d %s, want 413 and no 100", resp.StatusCode, body)
	}
}

// TestRestoreRefusedFromHead: once the server serves, a POST /restore is
// 409 from its head alone, however large a body the head announces: the
// server reads none of it.
func TestRestoreRefusedFromHead(t *testing.T) {
	k := dial(t, listen(t, newTestServer(t, 100)))
	if resp, body := k.read2(post("/query", querySQL)); resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	k.send("POST /restore HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n")
	resp, body := k.read()
	if resp.StatusCode != StatusConflict || !strings.Contains(body, `"conflict"`) || !resp.Close {
		t.Fatalf("restore of a 1 TiB body into a live server: %d %s, want 409 conflict", resp.StatusCode, body)
	}
}

// TestHeadDeadline: a head that stalls is dropped at the deadline without
// an answer, while an idle keep-alive connection waits as long as its
// client likes before its next request.
func TestHeadDeadline(t *testing.T) {
	srv := newTestServer(t, 100)
	srv.headTimeout = 100 * time.Millisecond
	addr := listen(t, srv)

	stalled := dial(t, addr)
	stalled.send("GET /budget HTTP/1.1\r\nHost:")
	start := time.Now()
	if !stalled.closed(2 * time.Second) {
		t.Fatal("a stalled head keeps its connection")
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("a stalled head was dropped after %v, before its deadline", waited)
	}
	silent := dial(t, addr)
	if !silent.closed(2 * time.Second) {
		t.Fatal("a connection that never sends a byte keeps it")
	}

	idle := dial(t, addr)
	if resp, _ := idle.read2("GET /budget HTTP/1.1\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
	time.Sleep(3 * srv.headTimeout)
	if resp, _ := idle.read2("GET /budget HTTP/1.1\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
}

// withRoute serves r at path too, on a server not yet serving.
func withRoute(srv *Server, path string, r route) {
	srv.routes = maps.Clone(srv.routes)
	srv.routes[path] = r
}

// syncBuffer is a bytes.Buffer the server's goroutines write while the
// test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestHandlerPanicEndsItsConnection: a handler that panics ends its own
// connection; the server and every other connection go on.
func TestHandlerPanicEndsItsConnection(t *testing.T) {
	logged := &syncBuffer{}
	log.SetOutput(logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	srv := newTestServer(t, 100)
	withRoute(srv, "/panic", route{serve: func(*Server, *Response, *Request) { panic("boom") }, limit: analystLimit})
	addr := listen(t, srv)
	other := dial(t, addr)
	if resp, _ := other.read2("GET /budget HTTP/1.1\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
	k := dial(t, addr)
	k.send("GET /panic HTTP/1.1\r\n\r\n")
	if !k.closed(time.Second) {
		t.Fatal("the panicking handler's connection stays open")
	}
	if !strings.Contains(logged.String(), "boom") {
		t.Errorf("the panic is not logged: %q", logged.String())
	}
	if resp, _ := other.read2("GET /budget HTTP/1.1\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
	if resp, _ := dial(t, addr).read2("GET /budget HTTP/1.1\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
}

// TestShutdownWaitsForHandlersNotClients: Shutdown returns once the
// handler that had started returns, whatever a client mid-head or
// mid-body does, and no handler starts after it has begun waiting.
func TestShutdownWaitsForHandlersNotClients(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := newTestServer(t, 100)
	withRoute(srv, "/block", route{serve: func(s *Server, w *Response, r *Request) {
		entered <- struct{}{}
		<-release
		writeJSON(w, StatusOK, "released")
	}, limit: analystLimit})
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	addr := l.Addr().String()

	blocked := dial(t, addr)
	blocked.send("GET /block HTTP/1.1\r\n\r\n")
	<-entered
	midHead := dial(t, addr)
	midHead.send("GET /budget HTTP/1.1\r\n")
	midBody := dial(t, addr)
	midBody.send("POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
	late := dial(t, addr)
	late.send("GET /budget HTTP/1.1\r\n\r\n")
	if resp, _ := late.read(); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	// Shutdown is now waiting on the blocked handler: a complete request
	// arriving meanwhile must not start one.
	time.Sleep(50 * time.Millisecond)
	late.send("GET /block HTTP/1.1\r\n\r\n")
	select {
	case <-done:
		t.Fatal("Shutdown returned while a handler ran")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown waits for clients after the last handler returned")
	}
	if err := <-served; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	for name, k := range map[string]*client{"mid-head": midHead, "mid-body": midBody, "late": late} {
		if !k.closed(time.Second) {
			t.Errorf("%s connection stays open after Shutdown", name)
		}
	}
	select {
	case <-entered:
		t.Fatal("a handler started after Shutdown began waiting")
	default:
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Error("the listener still accepts after Shutdown")
	}
}

// TestNonFiniteResponseNotServed: a /query or /query/batch whose answer
// cannot be encoded (ε_G = +Inf leaves +Inf remaining budget) is a 500,
// and no request is counted as served.
func TestNonFiniteResponseNotServed(t *testing.T) {
	srv := newTestServer(t, math.Inf(1))
	var resp Response
	for path, body := range map[string]string{"/query": querySQL, "/query/batch": `{"queries":["SELECT COUNT(*) FROM covid"]}`} {
		req := Request{Method: MethodPost, Path: path, Length: int64(len(body))}
		if err := srv.Handle(&resp, &req, strings.NewReader(body)); err != nil || resp.Status != StatusInternalServerError {
			t.Fatalf("%s: %d %s (%v), want 500", path, resp.Status, resp.Body, err)
		}
	}
	if got := srv.queries.Load(); got != 0 {
		t.Errorf("%d requests counted as served, none got a 200", got)
	}
}

// headSeeds are request heads on both sides of what parseHead accepts.
var headSeeds = []string{
	"GET /budget HTTP/1.1\r\nHost: t\r\n\r\n",
	"POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 52\r\n\r\n",
	"POST /restore HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 1099511627776\r\n\r\n",
	"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
	"POST /query HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\n",
	"POST /query HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
	"GET /schema?x=1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
	"GET /schema HTTP/1.1\nConnection: Keep-Alive, close\n\n",
	"GET /budget HTTP/1.1\r\nX-A: 1\r\n  2\r\n\r\n",
	"GET /budget HTTP/1.1\r\nHost : t\r\n\r\n",
	"G\x01T / HTTP/1.1\r\n\r\n",
}

// FuzzHead: parseHead never panics, and on a head it accepts it reads
// what net/http's ReadRequest reads where both define the same thing:
// the method, the path, a Content-Length, whether the connection ends
// after the response, and Expect: 100-continue.
func FuzzHead(f *testing.F) {
	for _, s := range headSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := headLen(b)
		if n == 0 {
			return
		}
		h := parseHead(b[:n])
		if h.status != 0 {
			return
		}
		if h.method == "" || h.length < -1 {
			t.Fatalf("%q: accepted as %+v", b[:n], h)
		}
		r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(b[:n])))
		if err != nil {
			return
		}
		path, _, _ := strings.Cut(r.RequestURI, "?")
		switch {
		case h.method != r.Method || h.path != path:
			t.Fatalf("%q: %s %s, net/http %s %s", b[:n], h.method, h.path, r.Method, path)
		case h.length >= 0 && h.length != r.ContentLength:
			t.Fatalf("%q: length %d, net/http %d", b[:n], h.length, r.ContentLength)
		case h.length >= 0 && len(r.TransferEncoding) > 0:
			t.Fatalf("%q: length %d, net/http reads a Transfer-Encoding", b[:n], h.length)
		case h.close != r.Close:
			t.Fatalf("%q: close %v, net/http %v", b[:n], h.close, r.Close)
		case len(r.Header["Expect"]) == 1 && r.ProtoMinor == 1 &&
			h.expect != strings.EqualFold(r.Header.Get("Expect"), "100-continue"):
			t.Fatalf("%q: expect %v, net/http %q", b[:n], h.expect, r.Header.Get("Expect"))
		}
	})
}
