//go:build !race

package httpd

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
)

// TestEncodeAllocBudget: once a connection's response buffer has grown,
// appending a /query body or a 16-element /query/batch envelope of
// answered statements into it allocates nothing.
func TestEncodeAllocBudget(t *testing.T) {
	resp := QueryResponse{Fraction: 0.0123456789, Count: 24691.3578, Source: "exact-hit", Remaining: 9.80065}
	items := make([]BatchItem, 16)
	for i := range items {
		items[i] = BatchItem{Status: StatusOK, Result: &resp}
	}
	var buf []byte
	allocs := testing.AllocsPerRun(200, func() {
		body, err := appendQueryResponse(buf[:0], &resp)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = appendBatchResponse(body, items); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding 200 bodies allocates %v objects per run, want 0", allocs)
	}
}

// TestHandleExactHitZeroAllocs: from the body read to the response body,
// an exact hit allocates nothing — a repeat on /query, windowed or not,
// the first read of a fill, each statement of an all-hit /query/batch of
// 16. Before statements were probed by key, these read 11, 12 and 141;
// the first read of a fill read 1 while it promoted the fill's key into a
// decoded map in front of the store, and a windowless repeat 1 while its
// planned window's key was rendered into a fresh string.
func TestHandleExactHitZeroAllocs(t *testing.T) {
	h := &handler{srv: newTestServer(t, 1e6)}
	for _, hit := range [][]byte{hitStatement(7, 3), []byte(`{"sql":"SELECT COUNT(*) FROM covid WHERE positive = 1"}`)} {
		h.do(t, "/query", hit) // the fill
		if allocs := testing.AllocsPerRun(200, func() {
			if resp := h.do(t, "/query", hit); !bytes.Contains(resp.Body, []byte(`"source":"exact-hit"`)) {
				t.Fatalf("not a hit: %s", resp.Body)
			}
		}); allocs != 0 {
			t.Errorf("a /query repeat hit of %s allocates %v objects, want 0", hit, allocs)
		}
	}

	const touches = 100
	var first [touches + 1][]byte
	for i := range first {
		first[i] = hitStatement(8+i/10, i)
		h.do(t, "/query", first[i]) // filled, never read
	}
	i := 0
	if allocs := testing.AllocsPerRun(touches, func() {
		if resp := h.do(t, "/query", first[i]); !bytes.Contains(resp.Body, []byte(`"source":"exact-hit"`)) {
			t.Fatalf("not a hit: %s", resp.Body)
		}
		i++
	}); allocs != 0 {
		t.Errorf("the first read of a fill allocates %v objects, want 0", allocs)
	}

	var batch BatchQueryRequest
	for j := range 16 {
		var q QueryRequest
		_ = json.Unmarshal(hitStatement(20+j, j), &q)
		batch.Queries = append(batch.Queries, q.SQL)
	}
	body, _ := json.Marshal(batch)
	for range 2 {
		h.do(t, "/query/batch", body)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if resp := h.do(t, "/query/batch", body); bytes.Count(resp.Body, []byte(`"source":"exact-hit"`)) != 16 {
			t.Fatalf("not 16 hits: %s", resp.Body)
		}
	}); allocs != 0 {
		t.Errorf("an all-hit /query/batch of 16 allocates %v objects, want 0", allocs)
	}
}

// TestHandleMissZeroAllocs: once the tree nodes a statement touches
// exist, a cold /query allocates nothing from the body read to the
// response body — its query is built into the connection's scratch, its
// flight record is recycled, its fill is encoded from a pooled entry.
// Before misses were built into the scratch this read 11 objects (459 B).
func TestHandleMissZeroAllocs(t *testing.T) {
	h := &handler{srv: newTestServer(t, 1e6)}
	const warm, runs = 150, 200
	var stmts [warm + runs + 1][]byte
	for i := range stmts {
		stmts[i] = hitStatement(i/10, i%10) // 450 distinct statements
	}
	for _, body := range stmts[:warm] {
		h.do(t, "/query", body)
	}
	i := warm
	if allocs := testing.AllocsPerRun(runs, func() {
		if resp := h.do(t, "/query", stmts[i]); !bytes.Contains(resp.Body, []byte(`"source":"tree"`)) {
			t.Fatalf("not a miss: %s", resp.Body)
		}
		i++
	}); allocs != 0 {
		t.Errorf("a cold /query allocates %v objects, want 0", allocs)
	}
}

// TestParseHeadZeroAllocs: a head naming a route's method and path is
// parsed without a copy of either, and a Connection header without a
// slice of its tokens. It took 2, and 3 with Connection.
func TestParseHeadZeroAllocs(t *testing.T) {
	for _, head := range []string{
		"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 42\r\n\r\n",
		"POST /query/batch HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\nContent-Length: 42\r\n\r\n",
		"GET /budget HTTP/1.0\r\nConnection: close, keep-alive\r\n\r\n",
	} {
		b := []byte(head)
		if allocs := testing.AllocsPerRun(200, func() {
			if h := parseHead(b); h.status != 0 || h.path == "" {
				t.Fatalf("parseHead(%q) = %+v", head, h)
			}
		}); allocs != 0 {
			t.Errorf("parseHead(%q) allocates %v objects, want 0", head, allocs)
		}
	}
}

// TestHandleColdBatchAllocs: once the tree nodes its statements touch
// exist, a cold 16-statement /query/batch allocates nothing from the body
// read to the response body: each element takes /query's step, its miss
// built into the connection's scratch and executed on the handler's
// goroutine, and the outcomes are kept in the scratch. Before, this read
// 118 objects: a built query per miss, and the batch plane's own slices,
// maps and closures per call.
func TestHandleColdBatchAllocs(t *testing.T) {
	h, batches := coldBatchHandler(t)
	i := 0
	if allocs := testing.AllocsPerRun(len(batches)-1, func() {
		h.coldBatch(t, batches[i])
		i++
	}); allocs != 0 {
		t.Errorf("a cold /query/batch of 16 allocates %v objects, want 0", allocs)
	}
}

// TestHandleColdBatchAllocsParallel is TestHandleColdBatchAllocs with two
// Ps, where AllocsPerRun pins one: a cold /query/batch still allocates
// nothing. It reads each batch's objects and gates their median, so what
// a few batches make that the rest reuse is not counted: the store's new
// chunks, and the per-P arrays and objects of the sync.Pools a miss uses
// (flight records, cache entries, the tree's scratch) when the handler
// lands on a P whose pools are empty. It read 1 on most batches (about 2
// on average) while the batch plane started a helper goroutine to execute
// misses beside the handler.
func TestHandleColdBatchAllocsParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	h, batches := coldBatchHandler(t)
	var before, after runtime.MemStats
	objects := make([]uint64, len(batches))
	for i, body := range batches {
		runtime.ReadMemStats(&before)
		h.coldBatch(t, body)
		runtime.ReadMemStats(&after)
		objects[i] = after.Mallocs - before.Mallocs
	}
	t.Logf("objects per batch: %v", objects)
	slices.Sort(objects)
	if median := objects[len(objects)/2]; median != 0 {
		t.Errorf("at GOMAXPROCS 2, a cold /query/batch of 16 allocates %d objects (median), want 0", median)
	}
}

// coldBatchHandler returns a connection's handler and the 16-statement
// batches that miss on its server, every tree node they touch made. The
// batches ran once on another server, over the same connection, so that
// no slot's query outgrows its arrays when they run again.
func coldBatchHandler(t *testing.T) (*handler, [][]byte) {
	const warm = 150
	var stmts [][]byte
	for i := range 450 {
		stmts = append(stmts, hitStatement(i/10, i%10)) // every statement there is
	}
	var batches [][]byte
	for cold := stmts[warm:]; len(cold) >= 16; cold = cold[16:] {
		var batch BatchQueryRequest
		for _, body := range cold[:16] {
			var q QueryRequest
			_ = json.Unmarshal(body, &q)
			batch.Queries = append(batch.Queries, q.SQL)
		}
		body, _ := json.Marshal(batch)
		batches = append(batches, body)
	}
	h := &handler{srv: newTestServer(t, 1e6)}
	for _, body := range batches {
		h.do(t, "/query/batch", body)
	}
	h.srv = newTestServer(t, 1e6)
	for _, body := range stmts[:warm] {
		h.do(t, "/query", body) // every window's nodes
	}
	return h, batches
}

// coldBatch sends a /query/batch whose 16 statements must all miss.
func (h *handler) coldBatch(t *testing.T, body []byte) {
	if resp := h.do(t, "/query/batch", body); bytes.Count(resp.Body, []byte(`"source":"tree"`)) != 16 {
		t.Fatalf("not 16 misses: %s", resp.Body)
	}
}

// TestHandleGroupByZeroAllocs: a /groupby allocates nothing from the body
// read to the response body, whether its cells are all exact hits or all
// first-time misses whose tree nodes exist: each cell is a copy of the
// statement's builder, probed by its key and built into the connection's
// scratch only on a miss, and the body is appended. The two read 88 and
// 51 objects while the statement was decomposed into built queries and
// the body went through encoding/json.
func TestHandleGroupByZeroAllocs(t *testing.T) {
	h := &handler{srv: newTestServer(t, 1e6)}
	hit := []byte(`{"sql":"SELECT COUNT(*) FROM covid WHERE time BETWEEN 1 AND 2 GROUP BY positive, age"}`)
	h.do(t, "/groupby", hit) // the fills
	if allocs := testing.AllocsPerRun(200, func() {
		if resp := h.do(t, "/groupby", hit); bytes.Count(resp.Body, []byte(`"source":"exact-hit"`)) != 8 {
			t.Fatalf("not 8 hits: %s", resp.Body)
		}
	}); allocs != 0 {
		t.Errorf("an all-hit /groupby of 8 cells allocates %v objects, want 0", allocs)
	}

	// Every window's nodes, from statements that are no cell below: an
	// age set of two values or more.
	for pred := range 45 {
		if ages := pred%15 + 1; ages&(ages-1) != 0 {
			for w := range 10 {
				h.do(t, "/query", hitStatement(pred, w))
			}
		}
	}
	var cold [][]byte
	for w := range 10 {
		if w != 5 { // [1, 2], the all-hit statement's window
			cold = append(cold, groupByStatement(0, w), groupByStatement(1, w), groupByStatement(2, w))
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(cold)-1, func() {
		if resp := h.do(t, "/groupby", cold[i]); bytes.Count(resp.Body, []byte(`"source":"tree"`)) != 4 {
			t.Fatalf("not 4 misses: %s", resp.Body)
		}
		i++
	}); allocs != 0 {
		t.Errorf("a first-time /groupby of 4 cells allocates %v objects, want 0", allocs)
	}
}

// TestHandleAppendAllocs: a steady-state /append of one partition, its
// batch decoded into the connection's scratch and applied on the
// handler's goroutine, allocates what the partition keeps — its dataset
// row and the view that publishes it, its accountant and dataset slots
// (amortized), its warm-started tree leaf (node, learning rate,
// histogram, heuristic) — and nothing for the body, the ticket or the
// response. Through encoding/json, with a
// per-request arrival slice and pending queue, and with the leaf built
// uniform before the warm start replaced it, this read 36 objects; with
// an ingestion ticket and its channel per batch, 8.
func TestHandleAppendAllocs(t *testing.T) {
	h := &handler{srv: newStreamServer(t)}
	var bodies [250][]byte
	for i := range bodies {
		bodies[i] = appendBody(i)
	}
	for _, body := range bodies[:50] {
		h.do(t, "/append", body) // the scratch's arrays, and the maps' and slices' growth
	}
	i := 50
	allocs := testing.AllocsPerRun(len(bodies)-i-1, func() {
		if resp := h.do(t, "/append", bodies[i]); !bytes.Contains(resp.Body, []byte(`"start":`)) {
			t.Fatalf("not appended: %s", resp.Body)
		}
		i++
	})
	// Kept: the dataset view (1), the node (1), its schedule (1), its
	// histogram (2), its heuristic (1). The row is cut from a 16 KiB
	// chunk, and it, the slots' and the node map's growth amortize to
	// under one.
	if allocs > 6 {
		t.Errorf("a steady-state /append allocates %v objects, want at most 6", allocs)
	}
}
