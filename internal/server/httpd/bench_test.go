package httpd

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/workload"
)

// coldStatement renders q as the benchmark's workloads send it
// (benchmark/workloads.go, sqlFor): one value as "= v", more as an IN
// list.
func coldStatement(q *query.Query) string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM covid")
	sep := " WHERE "
	for a := 0; a < q.Domain().NumAttrs(); a++ {
		vals := q.Allowed(a)
		if vals == nil {
			continue
		}
		b.WriteString(sep + q.Domain().Attr(a).Name)
		sep = " AND "
		if len(vals) == 1 {
			b.WriteString(" = " + strconv.Itoa(vals[0]))
			continue
		}
		b.WriteString(" IN (")
		for j, v := range vals {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteString(")")
	}
	s, e, _ := q.Window()
	return b.String() + sep + "time BETWEEN " + strconv.Itoa(s) + " AND " + strconv.Itoa(e)
}

// BenchmarkHandleQueryBatchCold is the benchmark's hit_zipf set-up in
// process: 125 POST /query/batch of 16 never-repeated statements — 2,000
// distinct (predicate, window) pairs — through Handle on a fresh
// session over turbo-server's default dataset (covid, 2M rows, 16 weeks),
// over one connection.
// Every statement is decoded, parsed, planned, missed, executed by the tree
// and encoded once: the request front end with no cache in front of it.
func BenchmarkHandleQueryBatchCold(b *testing.B) {
	const weeks, batches, batchSize = 16, 125, 16
	ds, err := workload.BuildCovid(workload.CovidConfig{Rows: 2_000_000, Weeks: weeks, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pool := workload.CovidPool(ds.Domain())
	bodies := make([][]byte, batches)
	for i := range bodies {
		var req BatchQueryRequest
		for j := 0; j < batchSize; j++ {
			n := i*batchSize + j
			start := n % weeks
			q := pool[n*len(pool)/(batches*batchSize)].WithWindow(start, start+n%(weeks-start))
			req.Queries = append(req.Queries, coldStatement(q))
		}
		bodies[i], _ = json.Marshal(req)
	}

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := core.NewSession(core.Config{
			Mode: core.Partitioned, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 10,
			Structure: tree.Binary, Seed: 42,
			Backend: store.NewMem(store.MemConfig{}),
		}, ds)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := New(sess, "covid")
		if err != nil {
			b.Fatal(err)
		}
		// One connection: its Request and Response carry their arrays and
		// scratch from one batch to the next, as the listener's do.
		var (
			req  Request
			resp Response
			r    bytes.Reader
		)
		b.StartTimer()
		for _, body := range bodies {
			req.next(MethodPost, "/query/batch", int64(len(body)))
			r.Reset(body)
			if err := srv.Handle(&resp, &req, &r); err != nil || resp.Status != StatusOK {
				b.Fatalf("status %d (%v): %s", resp.Status, err, resp.Body)
			}
		}
		b.StopTimer()
		if got := srv.queries.Load(); got != batches*batchSize {
			b.Fatalf("served %d of %d statements", got, batches*batchSize)
		}
		srv.Close()
		b.StartTimer()
	}
}
