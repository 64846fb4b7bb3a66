// Regression tests for /budget: the Gaussian-mode figures (once
// per_partition read all-zero and max_spent 0 while average_spent showed
// real RDP consumption, because two sets of books disagreed), the
// response as one snapshot of the books, and the served-request counter
// semantics under /groupby.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/core"
)

func getBudget(t *testing.T, ts *liveServer) BudgetResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BudgetResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return br
}

// TestGaussianBudgetBooksAgree drives Gaussian sessions (both modes)
// through the HTTP surface and asserts the per-partition figures, the
// aggregate metrics, and the rdp section all tell the same story.
func TestGaussianBudgetBooksAgree(t *testing.T) {
	for _, mode := range []core.Mode{core.NonPartitioned, core.Partitioned} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, _ := newTestServerWith(t, 10, func(c *core.Config) {
				c.Mode = mode
				c.Gaussian = true
				c.DeltaGlobal = 1e-6
			})
			ts := serve(t, srv)
			defer ts.Close()

			sqls := []string{
				"SELECT COUNT(*) FROM covid WHERE positive = 1",
				"SELECT COUNT(*) FROM covid WHERE age = 2",
				"SELECT COUNT(*) FROM covid WHERE positive = 0 AND age IN (0,1)",
			}
			for _, sql := range sqls {
				resp, body := postQuery(t, ts, sql)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%q: status %d: %s", sql, resp.StatusCode, body)
				}
			}

			br := getBudget(t, ts)
			if br.AverageSpent <= 0 {
				t.Fatal("average_spent zero after paid queries")
			}
			if br.MaxSpent <= 0 {
				t.Fatal("max_spent zero while average_spent > 0 — the cooked books are back")
			}
			nonZero := 0
			sum := 0.0
			for _, s := range br.PerPartition {
				if s > 0 {
					nonZero++
				}
				sum += s
			}
			if nonZero == 0 {
				t.Fatalf("per_partition all-zero: %v", br.PerPartition)
			}
			// per_partition is each partition's converted Rényi spend, so
			// its average is average_spent.
			if avg := sum / float64(len(br.PerPartition)); avg != br.AverageSpent {
				t.Fatalf("per_partition average %g inconsistent with average_spent %g", avg, br.AverageSpent)
			}
			if br.RDP == nil {
				t.Fatal("Gaussian /budget lacks the rdp section")
			}
			if br.RDP.Delta != 1e-6 {
				t.Fatalf("rdp delta = %g", br.RDP.Delta)
			}
			// Live sparse vectors: none can exist before a histogram bin
			// is ready, and never more than the node sets queried.
			if br.RDP.LiveMechanisms < 0 || br.RDP.LiveMechanisms > len(sqls) {
				t.Fatalf("live mechanisms %d", br.RDP.LiveMechanisms)
			}
		})
	}
}

// TestBudgetIsOneSnapshot: /budget derives every figure of a response
// from one read of the books, so under concurrent payment max_spent is
// exactly max(per_partition) and average_spent exactly their mean in
// every response. (Reading the partitions, the average and the maximum
// under separate lock acquisitions, as the handler once did, lets a
// payment land in between.)
func TestBudgetIsOneSnapshot(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		t.Run(fmt.Sprintf("gaussian=%v", gaussian), func(t *testing.T) {
			srv, _ := newTestServerWith(t, 1e6, func(c *core.Config) {
				c.Gaussian = gaussian
				c.DeltaGlobal = 1e-6
			})
			acct := srv.sess.Accountant()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := acct.PayRange((i+w)%4, 3, accountant.Laplace(1e-3)); err != nil {
							t.Errorf("payer: %v", err)
							return
						}
						runtime.Gosched() // on one core, let the reader in between payments
					}
				}(w)
			}
			defer func() {
				close(stop)
				wg.Wait()
			}()
			grew := 0
			last := 0.0
			// At least 400 responses, and as many more as it takes to have
			// seen spend move between 20 of them (the payers may be starved
			// of CPU for a while on a loaded box).
			deadline := time.Now().Add(30 * time.Second)
			for i := 0; i < 400 || grew < 20; i++ {
				if time.Now().After(deadline) {
					t.Fatalf("spend moved between only %d of %d responses: no concurrent payment to race", grew, i)
				}
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/budget", nil))
				var br BudgetResponse
				if err := json.NewDecoder(rec.Body).Decode(&br); err != nil {
					t.Fatal(err)
				}
				sum, max := 0.0, 0.0
				for _, v := range br.PerPartition {
					sum += v
					max = math.Max(max, v)
				}
				if br.MaxSpent != max || br.AverageSpent != sum/float64(len(br.PerPartition)) {
					t.Fatalf("response %d: max_spent %v average_spent %v, per_partition %v (max %v mean %v)",
						i, br.MaxSpent, br.AverageSpent, br.PerPartition, max, sum/float64(len(br.PerPartition)))
				}
				if br.AverageSpent > last {
					grew++
				}
				last = br.AverageSpent
			}
		})
	}
}

// TestPureModeBudgetHasNoRDPSection pins the scalar path: no rdp section.
func TestPureModeBudgetHasNoRDPSection(t *testing.T) {
	srv, _ := newTestServer(t, 10)
	ts := serve(t, srv)
	defer ts.Close()
	if _, body := postQuery(t, ts, "SELECT COUNT(*) FROM covid WHERE positive = 1"); len(body) == 0 {
		t.Fatal("empty query response")
	}
	if br := getBudget(t, ts); br.RDP != nil {
		t.Fatalf("pure-DP /budget has an rdp section: %+v", br.RDP)
	}
}

// TestGroupByCounterSemantics pins the corrected invariant: the served
// counter equals client-observed 200s even when /groupby requests are
// refused mid-group, while answers/by_source stay answer-level.
func TestGroupByCounterSemantics(t *testing.T) {
	srv, _ := newTestServer(t, 0.02)
	ts := serve(t, srv)
	defer ts.Close()

	sqls := []string{
		"SELECT COUNT(*) FROM covid WHERE positive = 1 GROUP BY age",
		"SELECT COUNT(*) FROM covid WHERE positive = 0 GROUP BY age",
		"SELECT COUNT(*) FROM covid GROUP BY age",
		"SELECT COUNT(*) FROM covid WHERE age IN (1,2) GROUP BY positive",
		"SELECT COUNT(*) FROM covid WHERE age = 3 GROUP BY positive",
	}
	served, refused, rows := 0, 0, 0
	for _, sql := range sqls {
		body, _ := json.Marshal(QueryRequest{SQL: sql})
		resp, err := http.Post(ts.URL+"/groupby", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var gr GroupByResponse
			if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
				t.Fatal(err)
			}
			served++
			rows += len(gr.Rows)
		case http.StatusTooManyRequests:
			refused++
		default:
			t.Fatalf("%q: status %d", sql, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if refused == 0 {
		t.Fatal("budget never exhausted; shrink ε_G so the test covers mid-group refusal")
	}

	br := getBudget(t, ts)
	if br.Queries != int64(served) {
		t.Fatalf("queries_answered %d != client-observed 200s %d", br.Queries, served)
	}
	if br.Refusals != int64(refused) {
		t.Fatalf("refusals %d != client-observed 429s %d", br.Refusals, refused)
	}
	// Answer-level books: every delivered row is counted, and answers
	// from groups served before a mid-group refusal stay counted too.
	var bySourceTotal int64
	for _, c := range br.BySource {
		bySourceTotal += c
	}
	if bySourceTotal != br.Answers {
		t.Fatalf("by_source sums to %d, answers %d", bySourceTotal, br.Answers)
	}
	// With this seed the third request refuses mid-group: its first
	// groups' answers were released (and counted) before the refusal, so
	// the answer book strictly exceeds the delivered rows while the
	// served counter ignores the refused request entirely.
	if br.Answers <= int64(rows) {
		t.Fatalf("answers %d not above delivered rows %d — mid-group refusal not exercised", br.Answers, rows)
	}
}
