// Tests of the durable-state endpoints (GET /snapshot, POST /restore).

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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

// TestSnapshotRacesAppendStorm drives the mid-stream story over HTTP:
// GET /snapshot while /appends arrive on other connections. Each snapshot
// restores into a fresh server with 200, every partition it holds loaded
// with its batch's rows and carrying its warm-started leaf.
func TestSnapshotRacesAppendStorm(t *testing.T) {
	srv1, ds1 := newStreamingServer(t, true)
	ts1 := serve(t, srv1)
	defer ts1.Close()
	domSize := ds1.Domain().Size()

	const appenders, appendsEach = 3, 4
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appendsEach; i++ {
				if status, body := post(t, ts1, "/append", appendBody(t, domSize, 1+i%2, 5)); status != http.StatusOK {
					t.Errorf("/append = %d %s", status, body)
					return
				}
			}
		}()
	}
	var snaps [][]byte
	for i := 0; i < 4; i++ {
		snaps = append(snaps, getSnapshot(t, ts1))
	}
	wg.Wait()
	snaps = append(snaps, getSnapshot(t, ts1))

	for i, snap := range snaps {
		srv2, ds2 := newStreamingServer(t, true)
		ts2 := serve(t, srv2)
		status, rbody := postRestore(t, ts2, snap)
		ts2.Close()
		if status != http.StatusOK {
			t.Fatalf("snapshot %d: POST /restore = %d %s", i, status, rbody)
		}
		var rr RestoreResponse
		if err := json.Unmarshal(rbody, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Partitions != ds2.Partitions() || srv2.sess.Accountant().Partitions() != rr.Partitions {
			t.Fatalf("snapshot %d: restored %d partitions, dataset %d, books %d",
				i, rr.Partitions, ds2.Partitions(), srv2.sess.Accountant().Partitions())
		}
		for p := 2; p < rr.Partitions; p++ {
			if got, want := partitionRows(ds2, p), 5*domSize; got != want {
				t.Fatalf("snapshot %d: partition %d holds %d rows, want %d", i, p, got, want)
			}
			if !hasLeaf(srv2.sess.Tree(), p) {
				t.Fatalf("snapshot %d: partition %d restored without its warm-started leaf", i, p)
			}
		}
		if i == len(snaps)-1 && rr.Partitions != ds1.Partitions() {
			t.Fatalf("the last snapshot holds %d partitions, the stream %d", rr.Partitions, ds1.Partitions())
		}
	}
}
