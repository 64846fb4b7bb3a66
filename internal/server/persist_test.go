// Tests of the durable-state endpoints (GET /snapshot, POST /restore)
// and the /append backpressure path (bounded ingest queue → 503 +
// Retry-After).

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server/httpd"
	"repro/internal/stream"
)

// gaussianCfg switches a test session to Rényi accounting.
func gaussianCfg(c *core.Config) {
	c.Gaussian = true
	c.DeltaGlobal = 1e-6
}

// getSnapshot fetches /snapshot and returns the envelope bytes.
func getSnapshot(t *testing.T, ts *liveServer) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// postRestore posts a snapshot to /restore and returns status + body.
func postRestore(t *testing.T, ts *liveServer, snap []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestSnapshotRestoreEndpoints round-trips a warmed Gaussian session
// through the HTTP surface: snapshot from one server, restore into a
// fresh identical one, equal books, free repeats — plus the status
// taxonomy for conflicting, junk, truncated, and mismatched restores.
func TestSnapshotRestoreEndpoints(t *testing.T) {
	srv1, _ := newTestServerWith(t, 100, gaussianCfg)
	ts1 := serve(t, srv1)
	defer ts1.Close()
	defer srv1.Close()

	const sql = "SELECT COUNT(*) FROM covid WHERE positive = 1"
	resp, body := postQuery(t, ts1, sql)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup query: %d %s", resp.StatusCode, body)
	}
	before := getBudget(t, ts1)
	if before.AverageSpent <= 0 {
		t.Fatal("warmup never spent")
	}
	snap := getSnapshot(t, ts1)

	srv2, _ := newTestServerWith(t, 100, gaussianCfg)
	ts2 := serve(t, srv2)
	defer ts2.Close()
	defer srv2.Close()
	status, rbody := postRestore(t, ts2, snap)
	if status != http.StatusOK {
		t.Fatalf("POST /restore = %d %s", status, rbody)
	}
	var rr RestoreResponse
	if err := json.Unmarshal(rbody, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.AverageSpent != before.AverageSpent {
		t.Fatalf("restored average spent %g, want %g", rr.AverageSpent, before.AverageSpent)
	}
	after := getBudget(t, ts2)
	if after.AverageSpent != before.AverageSpent || after.MaxSpent != before.MaxSpent {
		t.Fatalf("restored books %g/%g, want %g/%g",
			after.AverageSpent, after.MaxSpent, before.AverageSpent, before.MaxSpent)
	}
	if after.RDP == nil || before.RDP == nil || after.RDP.ConvertedSpent != before.RDP.ConvertedSpent {
		t.Fatalf("rdp section after restore: %+v, want %+v", after.RDP, before.RDP)
	}

	// The warmed cache answers the repeat for free.
	resp, body = postQuery(t, ts2, sql)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat after restore: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Source != "exact-hit" || qr.Paid != 0 {
		t.Fatalf("repeat after restore: source %s paid %g", qr.Source, qr.Paid)
	}

	// A session that served traffic refuses further restores: 409.
	if status, _ := postRestore(t, ts2, snap); status != http.StatusConflict {
		t.Fatalf("restore after queries = %d, want 409", status)
	}
	// Junk and truncated envelopes are rejected up front: 400.
	srv3, _ := newTestServerWith(t, 100, gaussianCfg)
	ts3 := serve(t, srv3)
	defer ts3.Close()
	defer srv3.Close()
	if status, _ := postRestore(t, ts3, []byte("not a snapshot")); status != http.StatusBadRequest {
		t.Fatalf("junk restore = %d, want 400", status)
	}
	if status, _ := postRestore(t, ts3, snap[:len(snap)/2]); status != http.StatusBadRequest {
		t.Fatalf("truncated restore = %d, want 400", status)
	}
	// A mismatched session (pure-ε vs the Gaussian snapshot) is 422: the
	// snapshot's accounting is not the session's, refused before anything
	// mutates — so the server stays usable.
	srv4, _ := newTestServer(t, 100)
	ts4 := serve(t, srv4)
	defer ts4.Close()
	defer srv4.Close()
	status, rbody = postRestore(t, ts4, snap)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(rbody), "gaussian=true") {
		t.Fatalf("accounting-mismatch restore = %d %s, want 422 naming the foreign accounting", status, rbody)
	}
	if resp, body := postQuery(t, ts4, sql); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after refused restore: %d %s (session must stay usable)", resp.StatusCode, body)
	}
}

// TestAppendBackpressure checks the bounded ingest queue end to end:
// with the worker quiesced and the backlog full, POST /append sheds with
// 503 + Retry-After; once the queue drains, the held appends land.
func TestAppendBackpressure(t *testing.T) {
	srv, ds := newStreamingServer(t, false, httpd.WithAppendBacklog(2))
	ts := serve(t, srv)
	defer ts.Close()
	defer srv.Close()
	domSize := ds.Domain().Size()

	resume := srv.Ingestor().Quiesce()
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/append", "application/json",
				bytes.NewReader(appendBody(t, domSize, 1, 3)))
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait until both batches are queued behind the quiesced worker.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Ingestor().Stats().Pending != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want 2", srv.Ingestor().Stats().Pending)
		}
		time.Sleep(time.Millisecond)
	}

	// The third append overflows: 503 with a retry hint, nothing queued.
	resp, err := http.Post(ts.URL+"/append", "application/json",
		bytes.NewReader(appendBody(t, domSize, 1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow append = %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("503 body %s, want kind overloaded", body)
	}

	// Resume: the two queued appends land with 200.
	resume()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued append = %d, want 200", code)
		}
	}
	if shed := srv.Ingestor().Stats().Shed; shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	if got := ds.Partitions(); got != 4 {
		t.Fatalf("partitions = %d, want 4 (shed batch must not land)", got)
	}
}

// TestSnapshotRestoreWithPendingEpochs drives the full mid-stream story
// over HTTP: a snapshot taken while appends wait behind the quiesce
// barrier restores into a fresh server, whose 200 means the pending
// epochs are applied — exactly once.
func TestSnapshotRestoreWithPendingEpochs(t *testing.T) {
	srv1, ds1 := newStreamingServer(t, true)
	ts1 := serve(t, srv1)
	defer ts1.Close()
	defer srv1.Close()

	const sql = "SELECT COUNT(*) FROM covid WHERE positive = 1"
	if resp, body := postQuery(t, ts1, sql); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup query: %d %s", resp.StatusCode, body)
	}
	resume := srv1.Ingestor().Quiesce()
	counts := make([]int, ds1.Domain().Size())
	for bin := range counts {
		counts[bin] = 5
	}
	if _, err := srv1.Ingestor().Submit(stream.Arrival{Counts: counts}); err != nil {
		t.Fatal(err)
	}
	snap := getSnapshot(t, ts1)

	srv2, ds2 := newStreamingServer(t, true)
	ts2 := serve(t, srv2)
	defer ts2.Close()
	defer srv2.Close()
	status, rbody := postRestore(t, ts2, snap)
	if status != http.StatusOK {
		t.Fatalf("POST /restore = %d %s", status, rbody)
	}
	var rr RestoreResponse
	if err := json.Unmarshal(rbody, &rr); err != nil {
		t.Fatal(err)
	}
	// 2 initial + 1 pending epoch, applied exactly once by restore time.
	if rr.Partitions != 3 || ds2.Partitions() != 3 {
		t.Fatalf("restored partitions = %d/%d, want 3", rr.Partitions, ds2.Partitions())
	}
	if got, want := ds2.PartitionN(2), 5*ds2.Domain().Size(); got != want {
		t.Fatalf("replayed partition has %d rows, want %d (exactly-once)", got, want)
	}
	resume()
}
