// The server-driven variant of the scaling experiment (turbo-bench
// -exp=scaling -batch=N): instead of calling the session in-process, it
// stands up the HTTP server and compares a singleton client (one POST
// /query per statement) against a batched client (POST /query/batch with
// N statements per call) on the same zipf-shared windowed workload, over
// the same goroutine ladder. The gap between the two curves is what the
// batch plane saves an actual analyst: request round-trips, per-request
// parsing, and the session's per-query pipeline overhead.

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// serverScalingQueries bounds the measured statements per ladder rung;
// HTTP round-trips cost orders of magnitude more than in-process calls,
// so the rungs are shorter than the in-process experiment's.
const serverScalingQueries = 12000

// sqlFor renders a windowed query back into the SQL surface the server
// parses: one conjunct per constrained attribute plus the time window.
func sqlFor(q *query.Query, table string) string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM ")
	b.WriteString(table)
	sep := " WHERE "
	dom := q.Domain()
	for a := 0; a < dom.NumAttrs(); a++ {
		vals := q.Allowed(a)
		if vals == nil {
			continue
		}
		b.WriteString(sep)
		sep = " AND "
		b.WriteString(dom.Attr(a).Name)
		if len(vals) == 1 {
			b.WriteString(" = ")
			b.WriteString(strconv.Itoa(vals[0]))
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
	if s, e, ok := q.Window(); ok {
		b.WriteString(sep)
		b.WriteString("time BETWEEN ")
		b.WriteString(strconv.Itoa(s))
		b.WriteString(" AND ")
		b.WriteString(strconv.Itoa(e))
	}
	return b.String()
}

// post sends one JSON request and drains the response, returning its
// status.
func post(client *http.Client, url string, payload any) (int, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// scalingHTTP is Scaling's -batch mode: singleton vs batched client
// curves over the worker ladder, against one warmed server.
func scalingHTTP(sc Scale) (Result, error) {
	workers := sc.Workers
	if len(workers) == 0 {
		workers = DefaultWorkers
	}
	env, err := NewCovidEnv(sc, 31)
	if err != nil {
		return Result{}, err
	}
	queries, err := windowed(env, distinctScalingQueries, 1)
	if err != nil {
		return Result{}, err
	}
	maxShards := runtime.NumCPU()
	for _, w := range workers {
		if w > maxShards {
			maxShards = w
		}
	}
	sess, err := scalingSession(env, maxShards)
	if err != nil {
		return Result{}, err
	}
	srv, err := server.New(sess, "covid")
	if err != nil {
		return Result{}, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 2 * maxShards}

	sqls := make([]string, len(queries))
	for i, q := range queries {
		sqls[i] = sqlFor(q, "covid")
	}
	singleURL, batchURL := ts.URL+"/query", ts.URL+"/query/batch"
	singleton := func(i int) error {
		status, err := post(client, singleURL, server.QueryRequest{SQL: sqls[i%len(sqls)]})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("POST /query: status %d", status)
		}
		return err
	}
	batched := func(i int) error {
		stmts := make([]string, sc.Batch)
		for k := range stmts {
			stmts[k] = sqls[(i*sc.Batch+k)%len(sqls)]
		}
		status, err := post(client, batchURL, server.BatchQueryRequest{Queries: stmts})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("POST /query/batch: status %d", status)
		}
		return err
	}

	// Warm the session serially so every rung measures the same
	// steady state (exact hits), not first-touch executions.
	for i := range sqls {
		if err := singleton(i); err != nil {
			return Result{}, fmt.Errorf("warm: %w", err)
		}
	}

	var singleQPS, batchQPS, speedup Series
	singleQPS.Name = "singleton-client-qps"
	batchQPS.Name = fmt.Sprintf("batch%d-client-qps", sc.Batch)
	speedup.Name = "batch-speedup-x"
	for _, w := range workers {
		sq, err := bestHTTPThroughput(singleton, 1, w)
		if err != nil {
			return Result{}, err
		}
		bq, err := bestHTTPThroughput(batched, sc.Batch, w)
		if err != nil {
			return Result{}, err
		}
		x := float64(w)
		singleQPS.Points = append(singleQPS.Points, Point{X: x, Y: sq})
		batchQPS.Points = append(batchQPS.Points, Point{X: x, Y: bq})
		speedup.Points = append(speedup.Points, Point{X: x, Y: bq / sq})
	}
	return Result{
		Name:   "scaling-http",
		XLabel: "goroutines",
		YLabel: "answers/sec",
		Series: []Series{singleQPS, batchQPS, speedup},
		Notes: []string{
			fmt.Sprintf("HTTP drive: %d statements per rung, %d distinct windowed queries, batch size %d",
				serverScalingQueries, distinctScalingQueries, sc.Batch),
			"singleton client: one POST /query per statement; batched client: POST /query/batch",
			fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		},
	}, nil
}

// bestHTTPThroughput measures answers/sec for a client op answering
// perCall statements, best of scalingReps runs across w goroutines.
func bestHTTPThroughput(op func(int) error, perCall, w int) (float64, error) {
	calls := serverScalingQueries / perCall
	best := 0.0
	for r := 0; r < scalingReps; r++ {
		q, err := httpThroughput(op, calls, w)
		if err != nil {
			return 0, err
		}
		if q := q * float64(perCall); q > best {
			best = q
		}
	}
	return best, nil
}

// httpThroughput fires total indexed calls of op across w goroutines and
// returns calls per second.
func httpThroughput(op func(int) error, total, w int) (float64, error) {
	per := total / w
	var wg sync.WaitGroup
	errs := make(chan error, w)
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := op(g*per + i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return float64(per*w) / elapsed.Seconds(), nil
}
