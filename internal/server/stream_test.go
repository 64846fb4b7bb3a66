// Race-enabled test of the streaming ingestion endpoint: POST /append
// storms interleaved with /query, /budget, and /schema traffic, pure-ε and
// Gaussian, asserting the budget books and the public partition counts
// stay consistent across arrivals.

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/interval"
	"repro/internal/server/httpd"
	"repro/internal/tree"
)

// newStreamingServer builds a streaming session over a small live store.
func newStreamingServer(t *testing.T, gaussian bool) (*testServer, *dataset.Dataset) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4},
	)
	ds := dataset.New(dom, 2)
	for w := 0; w < 2; w++ {
		for a := 0; a < 4; a++ {
			_ = addCount(ds, w, dom.Encode([]int{1, a}), 1000+100*a+10*w)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), 4000-150*a+20*w)
		}
	}
	cfg := core.Config{
		Mode: core.Streaming, Alpha: 0.05, Beta: 0.001,
		EpsilonGlobal: 40, Seed: 23,
	}
	if gaussian {
		cfg.Gaussian = true
		cfg.DeltaGlobal = 1e-6
	}
	sess, err := core.NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(t, sess), ds
}

// appendBody builds one /append batch of size partitions with count rows
// per bin.
func appendBody(t *testing.T, domSize, size, count int) []byte {
	t.Helper()
	var req AppendRequest
	for i := 0; i < size; i++ {
		counts := make([]int, domSize)
		for bin := range counts {
			counts[bin] = count
		}
		req.Partitions = append(req.Partitions, struct {
			Counts []int `json:"counts"`
		}{Counts: counts})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAppendStormAgainstQueries(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		name := "pure"
		if gaussian {
			name = "gaussian"
		}
		t.Run(name, func(t *testing.T) {
			srv, ds := newStreamingServer(t, gaussian)
			defer srv.Close()
			ts := serve(t, srv)
			defer ts.Close()
			client := ts.Client()

			queries := []string{
				"SELECT COUNT(*) FROM covid WHERE positive = 1",
				"SELECT COUNT(*) FROM covid WHERE age = 2",
				"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 0 AND 1",
			}

			var wg sync.WaitGroup
			const appenders, appendsEach = 3, 5
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < appendsEach; i++ {
						body := appendBody(t, ds.Domain().Size(), 1+(a+i)%2, 500)
						resp, err := client.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						var ar AppendResponse
						if resp.StatusCode != http.StatusOK {
							msg, _ := io.ReadAll(resp.Body)
							resp.Body.Close()
							t.Errorf("append status %d: %s", resp.StatusCode, msg)
							return
						}
						if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
							t.Error(err)
						}
						resp.Body.Close()
						if ar.End < ar.Start || ar.Partitions <= ar.End {
							t.Errorf("append response inconsistent: %+v", ar)
							return
						}
					}
				}(a)
			}
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						switch (w + i) % 3 {
						case 0, 1:
							body, _ := json.Marshal(QueryRequest{SQL: queries[(w+i)%len(queries)]})
							resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
							if err != nil {
								t.Error(err)
								return
							}
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK &&
								resp.StatusCode != http.StatusTooManyRequests {
								t.Errorf("query status %d", resp.StatusCode)
								return
							}
						default:
							resp, err := client.Get(ts.URL + "/schema")
							if err != nil {
								t.Error(err)
								return
							}
							var sr httpd.SchemaResponse
							if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
								t.Error(err)
							}
							resp.Body.Close()
							if sr.Ingestion == nil {
								t.Error("streaming /schema lacks ingestion counters")
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()

			// Final consistency: dataset grew by every appended partition,
			// the accountants cover all of them, and the books agree.
			wantParts := 2
			for a := 0; a < appenders; a++ {
				for i := 0; i < appendsEach; i++ {
					wantParts += 1 + (a+i)%2
				}
			}
			if ds.Partitions() != wantParts {
				t.Fatalf("dataset has %d partitions, want %d", ds.Partitions(), wantParts)
			}
			acct := srv.sess.Accountant()
			if len(acct.SpentVector()) != wantParts {
				t.Fatalf("block has %d partitions, want %d", len(acct.SpentVector()), wantParts)
			}
			for i := 0; i < wantParts; i++ {
				if s := acct.SpentVector()[i]; s > acct.Global()+1e-9 {
					t.Fatalf("partition %d overspent: %g", i, s)
				}
			}
			if (acct.Orders() != nil) != gaussian {
				t.Fatalf("accounting grid %v in a gaussian=%v session", acct.Orders(), gaussian)
			}

			// /schema must report the ingestion totals.
			resp, err := client.Get(ts.URL + "/schema")
			if err != nil {
				t.Fatal(err)
			}
			var sr httpd.SchemaResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if sr.Partitions != wantParts {
				t.Fatalf("/schema partitions = %d, want %d", sr.Partitions, wantParts)
			}
			ing := sr.Ingestion
			if ing == nil {
				t.Fatal("no ingestion section")
			}
			if ing.Batches != appenders*appendsEach {
				t.Fatalf("ingestion counters %+v, want %d batches", ing, appenders*appendsEach)
			}
			if ing.Partitions != int64(wantParts-2) {
				t.Fatalf("ingestion counters %+v, want %d partitions ingested", ing, wantParts-2)
			}
			// Every appended partition holds 500 rows in each bin.
			if want := int64((wantParts - 2) * 500 * ds.Domain().Size()); ing.Rows != want {
				t.Fatalf("rows_ingested = %d, want %d", ing.Rows, want)
			}
			// Every appended partition's leaf exists once its append
			// returned. The counter is the leaves the eager pass created,
			// and a racing query may have created some first.
			if ing.WarmStarted > int64(wantParts-2) {
				t.Fatalf("warm-started %d leaves for %d appended partitions", ing.WarmStarted, wantParts-2)
			}
			for p := 2; p < wantParts; p++ {
				if !hasLeaf(srv.sess.Tree(), p) {
					t.Fatalf("partition %d has no leaf after its append returned (streaming mode is eager)", p)
				}
			}
		})
	}
}

// TestAppendRefusedNonPartitioned checks the endpoint's refusal shape for
// sessions that cannot grow.
func TestAppendRefusedNonPartitioned(t *testing.T) {
	dom := domain.MustNew(domain.Attribute{Name: "positive", Card: 2})
	ds := dataset.New(dom, 1)
	_ = addCount(ds, 0, 0, 500)
	_ = addCount(ds, 0, 1, 500)
	sess, err := core.NewSession(core.Config{
		Mode: core.NonPartitioned, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 10, Seed: 2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sess, "covid")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := serve(t, srv)
	defer ts.Close()

	body := appendBody(t, dom.Size(), 1, 10)
	resp, err := ts.Client().Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if ds.Partitions() != 1 {
		t.Fatalf("refused append grew the dataset to %d", ds.Partitions())
	}
}

// TestAppendBodyCapped: a /append body past maxAppendBody is refused with
// 413 before anything is enqueued — /schema's batch counter and the
// partition count stay put — and the next append of ordinary size lands.
func TestAppendBodyCapped(t *testing.T) {
	srv, ds := newStreamingServer(t, false)
	defer srv.Close()
	ts := serve(t, srv)
	defer ts.Close()
	schema := func() httpd.SchemaResponse {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/schema")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr httpd.SchemaResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	before := schema()

	domSize := ds.Domain().Size()
	limit := maxAppendBody(domSize)
	body := appendBody(t, domSize, int(limit)/(2*domSize)+1, 1) // two bytes a count: over the cap
	if int64(len(body)) <= limit {
		t.Fatalf("test body of %d bytes is within the %d-byte cap", len(body), limit)
	}
	status, msg := post(t, ts, "/append", body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /append = %d %s, want 413", status, msg)
	}
	after := schema()
	if after.Ingestion.Batches != before.Ingestion.Batches || ds.Partitions() != 2 {
		t.Fatalf("the refused append enqueued: batches %d -> %d, %d partitions",
			before.Ingestion.Batches, after.Ingestion.Batches, ds.Partitions())
	}
	if status, msg := post(t, ts, "/append", appendBody(t, domSize, 1, 10)); status != http.StatusOK {
		t.Fatalf("/append after the refusal = %d %s", status, msg)
	}
}

// maxAppendPartitions and maxAppendBody are the documented /append caps: a
// batch of at most 64 partitions, in a body with room for 64 partitions
// whose every count prints as wide as an int can.
const maxAppendPartitions = 64

func maxAppendBody(domSize int) int64 {
	return int64(maxAppendPartitions*(domSize*len("-9223372036854775808,")+len(`{"counts":[]},`)) + len(`{"partitions":[]}`))
}

// TestAppendPartitionsCapped: a /append batch of more than
// maxAppendPartitions partitions is refused with 413 even when its body
// fits under the byte cap, and enqueues nothing — the partition count and
// every partition's spend stay put — while a batch of exactly
// maxAppendPartitions lands.
func TestAppendPartitionsCapped(t *testing.T) {
	srv, ds := newStreamingServer(t, false)
	defer srv.Close()
	ts := serve(t, srv)
	defer ts.Close()
	if status, msg := post(t, ts, "/query", []byte(`{"sql":"SELECT COUNT(*) FROM covid WHERE positive = 1"}`)); status != http.StatusOK {
		t.Fatalf("/query = %d %s", status, msg)
	}
	empties := func(n int) []byte {
		return []byte(`{"partitions":[{}` + strings.Repeat(`,{}`, n-1) + `]}`)
	}
	parts, spent := ds.Partitions(), srv.sess.Accountant().SpentVector()

	body := empties(maxAppendPartitions + 1)
	if int64(len(body)) > maxAppendBody(ds.Domain().Size()) {
		t.Fatalf("test body of %d bytes is over the byte cap", len(body))
	}
	if status, msg := post(t, ts, "/append", body); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("/append of %d partitions = %d %s, want 413", maxAppendPartitions+1, status, msg)
	}
	if ds.Partitions() != parts || !reflect.DeepEqual(srv.sess.Accountant().SpentVector(), spent) {
		t.Fatalf("the refused batch changed the books: %d -> %d partitions, spend %v -> %v",
			parts, ds.Partitions(), spent, srv.sess.Accountant().SpentVector())
	}
	if status, msg := post(t, ts, "/append", empties(maxAppendPartitions)); status != http.StatusOK {
		t.Fatalf("/append of %d partitions = %d %s", maxAppendPartitions, status, msg)
	}
	if ds.Partitions() != parts+maxAppendPartitions {
		t.Fatalf("%d partitions after the accepted batch, want %d", ds.Partitions(), parts+maxAppendPartitions)
	}
}

// TestAppendPastMaxRowsRefused: an /append whose rows would take the
// dataset past dataset.MaxRows — one count of 2^53, or a batch that fills
// it and one more row — is a 422 that changes nothing, so the snapshot
// (the periodic checkpoint's bytes) taken afterwards still restores.
func TestAppendPastMaxRowsRefused(t *testing.T) {
	srv, ds := newStreamingServer(t, false)
	defer srv.Close()
	ts := serve(t, srv)
	defer ts.Close()
	domSize := ds.Domain().Size()
	one := func(count int) []byte {
		b := appendBody(t, domSize, 1, 0)
		var req AppendRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		req.Partitions[0].Counts[0] = count
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	if status, msg := post(t, ts, "/append", one(dataset.MaxRows+1)); status != http.StatusUnprocessableEntity {
		t.Fatalf("/append of 2^53 rows = %d %s, want 422", status, msg)
	}
	if status, msg := post(t, ts, "/append", one(dataset.MaxRows-ds.NRowsAll())); status != http.StatusOK {
		t.Fatalf("/append filling the dataset = %d %s", status, msg)
	}
	if status, msg := post(t, ts, "/append", one(1)); status != http.StatusUnprocessableEntity {
		t.Fatalf("/append past a full dataset = %d %s, want 422", status, msg)
	}
	if ds.NRowsAll() != dataset.MaxRows || ds.Partitions() != 3 {
		t.Fatalf("dataset after the refusals: %d rows in %d partitions", ds.NRowsAll(), ds.Partitions())
	}

	snap := getSnapshot(t, ts)
	twin, twinDS := newStreamingServer(t, false)
	defer twin.Close()
	ts2 := serve(t, twin)
	defer ts2.Close()
	if status, msg := postRestore(t, ts2, snap); status != http.StatusOK {
		t.Fatalf("restore of the full dataset's snapshot = %d %s", status, msg)
	}
	if twinDS.NRowsAll() != dataset.MaxRows || twinDS.Partitions() != 3 {
		t.Fatalf("restored %d rows in %d partitions", twinDS.NRowsAll(), twinDS.Partitions())
	}
}

// hasLeaf reports whether partition p's tree leaf is materialized.
func hasLeaf(tr *tree.Tree, p int) bool {
	for _, n := range tr.ExportNodes() {
		if n.IV == (interval.Node{Start: p, End: p}) {
			return true
		}
	}
	return false
}
