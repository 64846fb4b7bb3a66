// Race-enabled concurrency test for the lock-free server: mixed analyst
// traffic (POST /query, GET /budget, GET /schema) from many goroutines
// against one sharded session, asserting budget accounting stays
// consistent under any interleaving.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/domain"
)

// newConcurrentServer builds a sharded partitioned session large enough
// for windowed traffic across shards.
func newConcurrentServer(t *testing.T, epsG float64) *Server {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4},
	)
	ds := dataset.New(dom, 8)
	for w := 0; w < 8; w++ {
		for a := 0; a < 4; a++ {
			_ = ds.AddCount(w, dom.Encode([]int{1, a}), 1000+100*a+10*w)
			_ = ds.AddCount(w, dom.Encode([]int{0, a}), 4000-150*a+20*w)
		}
	}
	sess, err := core.NewSession(core.Config{
		Mode: core.Partitioned, Alpha: 0.05, Beta: 0.001,
		EpsilonGlobal: epsG, Seed: 17,
		Shards: 4,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sess, "covid")
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestConcurrentMixedTraffic(t *testing.T) {
	srv := newConcurrentServer(t, 50)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	queries := []string{
		"SELECT COUNT(*) FROM covid WHERE positive = 1",
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 0 AND 3",
		"SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 4 AND 7",
		"SELECT COUNT(*) FROM covid WHERE age = 2",
		"SELECT COUNT(*) FROM covid WHERE age IN (1, 3) AND time BETWEEN 2 AND 5",
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	served, refused := 0, 0
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (w + i) % 4 {
				case 0, 1: // POST /query
					body, _ := json.Marshal(QueryRequest{SQL: queries[(w+i)%len(queries)]})
					resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					msg, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						mu.Lock()
						served++
						mu.Unlock()
					case http.StatusTooManyRequests:
						mu.Lock()
						refused++
						mu.Unlock()
					default:
						t.Errorf("POST /query status %d: %s", resp.StatusCode, msg)
						return
					}
				case 2: // GET /budget
					resp, err := client.Get(ts.URL + "/budget")
					if err != nil {
						t.Error(err)
						return
					}
					var br BudgetResponse
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if br.MaxSpent > br.Global+1e-9 {
						t.Errorf("budget overspent: max %g > global %g", br.MaxSpent, br.Global)
						return
					}
					for p, s := range br.PerPartition {
						if s > br.Global+1e-9 {
							t.Errorf("partition %d overspent: %g", p, s)
							return
						}
					}
				case 3: // GET /schema
					resp, err := client.Get(ts.URL + "/schema")
					if err != nil {
						t.Error(err)
						return
					}
					var sr SchemaResponse
					err = json.NewDecoder(resp.Body).Decode(&sr)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if sr.Table != "covid" || sr.Partitions != 8 {
						t.Errorf("schema = %+v", sr)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Final consistency: served counters match the session, per-source
	// counts add up, and the accountant respects ε_G everywhere.
	resp, err := client.Get(ts.URL + "/budget")
	if err != nil {
		t.Fatal(err)
	}
	var br BudgetResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.Queries != int64(served) {
		t.Fatalf("server counted %d queries, clients saw %d OK responses", br.Queries, served)
	}
	if br.Refusals != int64(refused) {
		t.Fatalf("server counted %d refusals, clients saw %d", br.Refusals, refused)
	}
	var bySourceTotal int64
	for _, c := range br.BySource {
		bySourceTotal += c
	}
	if bySourceTotal != br.Answers {
		t.Fatalf("per-source counts sum to %d, answers %d", bySourceTotal, br.Answers)
	}
	// /query traffic releases exactly one answer per served request.
	if br.Answers != br.Queries {
		t.Fatalf("answers %d != served requests %d under /query-only traffic", br.Answers, br.Queries)
	}
	for p, s := range br.PerPartition {
		if s > br.Global+1e-9 {
			t.Fatalf("partition %d ended overspent: %g > %g", p, s, br.Global)
		}
	}
	if served == 0 {
		t.Fatal("no queries served")
	}
}

// TestConcurrentExhaustion drives a tiny budget to exhaustion from many
// goroutines: every refusal must be a clean 429 and the accountant must
// never overshoot, no matter which goroutine loses the race.
func TestConcurrentExhaustion(t *testing.T) {
	srv := newConcurrentServer(t, 0.08)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sql := fmt.Sprintf("SELECT COUNT(*) FROM covid WHERE age = %d AND time BETWEEN %d AND %d",
					i%4, (w+i)%4, 4+(w+i)%4)
				body, _ := json.Marshal(QueryRequest{SQL: sql})
				resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	acct := srv.sess.Accountant()
	for i := 0; i < acct.Partitions(); i++ {
		if s := acct.SpentAt(i); s > acct.Global()+1e-9 {
			t.Fatalf("partition %d overspent after exhaustion race: %g > %g", i, s, acct.Global())
		}
	}
}
