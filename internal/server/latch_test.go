// Tests of the session's restore window: POST /restore racing the first
// analyst traffic of a fresh server, and a server whose restore was
// refused.

package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

// latchSQL lists distinct single-partition statements over
// newStreamingServer's two initial partitions: every predicate the
// 2×4 domain names with at most one value per attribute, per partition.
// A single-partition window charges only its own partition, so each
// answer's paid is that partition's charge.
func latchSQL() (sqls []string, parts []int) {
	var preds []string
	preds = append(preds, "")
	for v := 0; v < 2; v++ {
		preds = append(preds, fmt.Sprintf("positive = %d AND ", v))
		for a := 0; a < 4; a++ {
			preds = append(preds, fmt.Sprintf("positive = %d AND age = %d AND ", v, a))
		}
	}
	for a := 0; a < 4; a++ {
		preds = append(preds, fmt.Sprintf("age = %d AND ", a))
	}
	for p := 0; p < 2; p++ {
		for _, pred := range preds {
			sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) FROM covid WHERE %stime BETWEEN %d AND %d", pred, p, p))
			parts = append(parts, p)
		}
	}
	return sqls, parts
}

// post sends body to path and returns the status and response body; it
// reports transport failures through t.Error, so it is safe to call from
// any goroutine.
func post(t *testing.T, ts *liveServer, path string, body []byte) (int, []byte) {
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestRestoreRacesTraffic restores a snapshot into fresh servers while
// /query and /append traffic arrives at the same moment. The session's
// restore window allows exactly two outcomes. Either the restore ran first: it is 200,
// every answer was served on the restored books (the snapshot's cached
// statements come back as free exact hits), and each partition's spend
// is the snapshot's plus the answers' charges. Or traffic closed the
// window first: the restore is 409, and the books hold the answers'
// charges alone. Either way no released answer is missing its charge.
// The snapshot's cache carries padCache's entries besides the source's,
// so the restore runs long enough for traffic to land inside it.
func TestRestoreRacesTraffic(t *testing.T) {
	sqls, parts := latchSQL()
	cached := len(sqls) / 3 // the source answers every third statement

	src, ds := newStreamingServer(t, false)
	tsSrc := serve(t, src)
	defer tsSrc.Close()
	defer src.Close()
	inSnap := make(map[string]bool)
	for i := 0; i < len(sqls); i += 3 {
		if resp, body := postQuery(t, tsSrc, sqls[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("source query: %d %s", resp.StatusCode, body)
		}
		inSnap[sqls[i]] = true
	}
	snapSpend := getBudget(t, tsSrc).PerPartition
	snap := padCache(t, getSnapshot(t, tsSrc), 20000)
	appendReq := appendBody(t, ds.Domain().Size(), 1, 2)

	const rounds, workers = 8, 4
	outcomes := map[int]int{}
	for round := 0; round < rounds; round++ {
		srv, _ := newStreamingServer(t, false)
		ts := serve(t, srv)
		t.Cleanup(srv.Close)
		t.Cleanup(ts.Close)

		var (
			wg            sync.WaitGroup
			start         = make(chan struct{})
			restoreStatus int
			restoreBody   []byte
			answers       = make([]QueryResponse, len(sqls))
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			restoreStatus, restoreBody = post(t, ts, "/restore", snap)
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				// Stagger the rounds so traffic lands before, during and
				// after the restore's section loads.
				time.Sleep(time.Duration(round*w) * 100 * time.Microsecond)
				if w == 0 {
					if status, body := post(t, ts, "/append", appendReq); status != http.StatusOK {
						t.Errorf("round %d: /append = %d %s", round, status, body)
					}
				}
				for i := w; i < len(sqls); i += workers {
					body, _ := json.Marshal(QueryRequest{SQL: sqls[i]})
					status, out := post(t, ts, "/query", body)
					if status != http.StatusOK {
						t.Errorf("round %d: %q = %d %s", round, sqls[i], status, out)
						continue
					}
					if err := json.Unmarshal(out, &answers[i]); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		var base []float64
		switch restoreStatus {
		case http.StatusOK:
			base = snapSpend
		case http.StatusConflict:
			base = make([]float64, len(snapSpend))
		default:
			t.Fatalf("round %d: /restore = %d %s, want 200 or 409", round, restoreStatus, restoreBody)
		}
		outcomes[restoreStatus]++
		want := append([]float64(nil), base...)
		hits := 0
		for i, a := range answers {
			want[parts[i]] += a.Paid
			if a.Source == string(core.SourceExactHit) {
				hits++
				if !inSnap[sqls[i]] || a.Paid != 0 {
					t.Fatalf("round %d: %q is an exact hit paying %g on books that never held it", round, sqls[i], a.Paid)
				}
			}
		}
		if restoreStatus == http.StatusOK && hits != cached {
			t.Fatalf("round %d: restore 200 but %d of the snapshot's %d statements were exact hits: some answers were served on fresh books",
				round, hits, cached)
		}
		if restoreStatus == http.StatusConflict && hits != 0 {
			t.Fatalf("round %d: restore 409 but %d answers were served from restored caches", round, hits)
		}
		got := getBudget(t, ts).PerPartition
		if len(got) < len(want) {
			t.Fatalf("round %d: %d partitions in /budget, want at least %d", round, len(got), len(want))
		}
		for p, g := range got {
			w := 0.0
			if p < len(want) {
				w = want[p]
			}
			if math.Abs(g-w) > 1e-9*math.Max(1, w) {
				t.Fatalf("round %d (restore %d): partition %d spent %.12g, want %.12g (base %v plus the answers' charges)",
					round, restoreStatus, p, g, w, base)
			}
		}
	}
	t.Logf("restore outcomes over %d rounds: %v", rounds, outcomes)
}

// rewriteSection rewrites a snapshot with the named section's payload
// passed through edit.
func rewriteSection(t *testing.T, raw []byte, section string, edit func([]byte) []byte) []byte {
	t.Helper()
	payloads, err := persist.ReadSections(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	order := slices.Sorted(maps.Keys(payloads))
	var buf bytes.Buffer
	w, err := persist.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range order {
		p := payloads[name]
		if name == section {
			p, found = edit(p), true
		}
		if err := w.WriteSection(name, p); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatalf("snapshot has no section %q (have %v)", section, order)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptSnapshot rewrites a snapshot with the named section's payload
// replaced by garbage.
func corruptSnapshot(t *testing.T, raw []byte, section string) []byte {
	return rewriteSection(t, raw, section, func([]byte) []byte { return []byte("corrupted payload bytes") })
}

// padCache rewrites a snapshot's cache section with n more entries, under
// keys whose windows start at partition 1000, which no statement of the
// test names.
func padCache(t *testing.T, raw []byte, n int) []byte {
	return rewriteSection(t, raw, "cache/session-exact", func(p []byte) []byte {
		d := persist.NewDecoder(p)
		var e persist.Encoder
		have := d.Count(9)
		e.PutUvarint(uint64(have + n))
		for range have {
			e.PutBytes(d.Bytes())
			e.PutFloat(d.Float())
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			key := binary.AppendUvarint([]byte{1}, 1000) // the window header's mark, then its start
			key = binary.AppendUvarint(key, uint64(1000+i))
			e.PutBytes(append(key, 'x'))
			e.PutFloat(0.5)
		}
		return e.Payload()
	})
}

// TestPoisonedServerRefuses restores a snapshot whose tree/nodes section
// is garbage: it is refused with 422 before any section applies, so the
// server is as it was — its snapshot is the bytes it was, /budget reads
// zero, and a good snapshot then restores. A server refused so serves
// every analyst endpoint, and its first request closes the restore window
// as on any server.
func TestPoisonedServerRefuses(t *testing.T) {
	src, ds := newStreamingServer(t, false)
	tsSrc := serve(t, src)
	defer tsSrc.Close()
	defer src.Close()
	const sql = "SELECT COUNT(*) FROM covid WHERE positive = 1"
	if resp, body := postQuery(t, tsSrc, sql); resp.StatusCode != http.StatusOK {
		t.Fatalf("source query: %d %s", resp.StatusCode, body)
	}
	good := getSnapshot(t, tsSrc)
	bad := corruptSnapshot(t, good, "tree/nodes")

	srv, _ := newStreamingServer(t, false)
	ts := serve(t, srv)
	defer ts.Close()
	defer srv.Close()
	before := getSnapshot(t, ts)
	if status, body := postRestore(t, ts, bad); status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "tree/nodes") {
		t.Fatalf("garbage tree/nodes restore = %d %s, want 422 naming the section", status, body)
	}
	if after := getSnapshot(t, ts); !bytes.Equal(after, before) {
		t.Fatal("the refused restore changed the server's snapshot")
	}
	if b := getBudget(t, ts); b.MaxSpent != 0 || b.AverageSpent != 0 || b.Queries != 0 {
		t.Fatalf("/budget after the refused restore: %+v, want zero", b)
	}
	if status, body := postRestore(t, ts, good); status != http.StatusOK {
		t.Fatalf("good restore after the refused one = %d %s", status, body)
	}
	if resp, body := postQuery(t, ts, sql); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"exact-hit"`) {
		t.Fatalf("the snapshot's statement after the good restore = %d %s, want an exact hit", resp.StatusCode, body)
	}

	refused, _ := newStreamingServer(t, false)
	tsRefused := serve(t, refused)
	defer tsRefused.Close()
	defer refused.Close()
	if status, body := postRestore(t, tsRefused, bad); status != http.StatusUnprocessableEntity {
		t.Fatalf("garbage tree/nodes restore = %d %s, want 422", status, body)
	}
	q, _ := json.Marshal(QueryRequest{SQL: sql})
	batch, _ := json.Marshal(BatchQueryRequest{Queries: []string{sql}})
	group, _ := json.Marshal(QueryRequest{SQL: "SELECT COUNT(*) FROM covid GROUP BY age"})
	for _, c := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{"POST", "/query", q, http.StatusOK},
		{"POST", "/query/batch", batch, http.StatusOK},
		{"POST", "/groupby", group, http.StatusOK},
		{"POST", "/append", appendBody(t, ds.Domain().Size(), 1, 2), http.StatusOK},
		{"GET", "/snapshot", nil, http.StatusOK},
		{"POST", "/restore", good, http.StatusConflict},
	} {
		req, err := http.NewRequest(c.method, tsRefused.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s after a refused restore = %d %.100q, want %d", c.method, c.path, resp.StatusCode, out, c.want)
		}
	}
	if err := refused.sess.SaveState(io.Discard); err != nil {
		t.Fatalf("SaveState after a refused restore: %v", err)
	}
}
