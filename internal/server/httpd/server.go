// Package httpd is turbo-server: a Turbo-cached DP database served over
// HTTP/1.1 — the deployment shape the paper's introduction motivates: many
// untrusted analysts querying a trusted aggregate-only endpoint that
// enforces a global DP guarantee. It speaks HTTP itself (listener.go) on
// its own TCP sockets (sock.go), and links neither net/http nor net.
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT COUNT(*) FROM t WHERE ..."}
//	               → {"fraction": .., "count": .., "source": .., "paid": ..}
//	POST /query/batch {"queries": ["SELECT ...", ...]} → one status and
//	               result (or error) per statement, in order
//	POST /groupby  {"sql": "SELECT COUNT(*) FROM t WHERE ... GROUP BY a"}
//	               → one row per group, each through the /query pipeline
//	POST /append   {"partitions": [{"counts": [..]}, ...]} → the batch's
//	               assigned partition index range (streaming ingestion;
//	               partitioned sessions only)
//	GET  /budget   → per-partition and average consumed budget (plus an
//	               rdp section for Gaussian/Rényi sessions)
//	GET  /schema   → the public domain description, row counts, and the
//	               ingestion counters of the streaming pipeline
//	GET  /snapshot → the session's durable state as a persist envelope
//	               (accountants incl. RDP curves, caches, tree, and the
//	               dataset its appends grew)
//	POST /restore  → restore a snapshot into this fresh server, before it
//	               serves; 200 means every section is applied and
//	               queryable
//
// A handler takes a Request (method, path and whole body) and fills a Response
// (status, Content-Type and body); the front end reads the one and writes
// the other.
//
// Restore runs before serving, and the session's restore window decides
// when it may (core.Session.Serving): the first statement a /query,
// /query/batch or /groupby hands the session, or the first /append,
// closes it for good (a later /restore is 409, answered from its head
// before any of its body is read), a request that arrives while a restore
// runs waits for it, and a refused restore leaves the server as it was:
// every section stages before any applies. The server holds no lock of
// its own: the session's query pipeline is concurrency-safe (lock-free
// planning and exact-cache probes, execution that locks only around state
// updates, thread-safe accounting), so request goroutines flow straight
// through; /append applies its arrivals on its own connection through the
// streaming ingestor, in the order that keeps racing queries accountable,
// so the appends in flight are bounded by the connections. GET /budget and GET
// /schema are lock-free reads of accountant and public metadata that never
// close the restore window, and the server's own counters are atomics.
package httpd

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/sqlparser"
	"repro/internal/stream"
)

// Server handles HTTP analyst traffic over one Turbo session.
type Server struct {
	sess   *core.Session
	parser *sqlparser.Parser
	table  string
	// names is the domain's names as /groupby bodies write them.
	names groupNames
	// ing is the streaming ingestion pipeline behind POST /append; nil
	// for non-partitioned sessions, which cannot grow.
	ing *stream.Ingestor

	// queries counts served requests: exactly one per 200 response, so
	// client-observed successes always equal this counter — including
	// for /groupby, whose many primitive answers serve one request. The
	// answer-level counts are the session's (Queries, SourceCounts).
	queries  atomic.Int64
	refusals atomic.Int64

	// routes is the endpoint table (listener.go), and headTimeout bounds
	// the wait for a request head once it has begun.
	routes      map[string]route
	headTimeout time.Duration
	// down is set once, by Shutdown, before it waits: from then on no
	// connection is tracked and no handler starts.
	down atomic.Bool
	// gate orders handlers against Shutdown: a handler holds it shared
	// while it runs, and Shutdown takes it whole once to wait them out.
	gate sync.RWMutex
	// mu guards the listener and the open connections.
	mu    sync.Mutex
	ln    *Listener
	conns map[*conn]struct{}
}

// New creates a server over sess; table is the (single) table name the
// SQL surface accepts. Partitioned and streaming sessions get a streaming
// ingestor behind POST /append.
func New(sess *core.Session, table string) (*Server, error) {
	if sess == nil {
		return nil, errors.New("httpd: nil session")
	}
	if table == "" {
		return nil, errors.New("httpd: empty table name")
	}
	srv := &Server{
		sess:        sess,
		parser:      sqlparser.New(sess.Dataset().Domain()),
		names:       quoteNames(sess.Dataset().Domain()),
		table:       table,
		routes:      routes,
		headTimeout: 10 * time.Second,
		conns:       make(map[*conn]struct{}),
	}
	if sess.Tree() != nil {
		ing, err := stream.NewIngestor(sess)
		if err != nil {
			return nil, err
		}
		srv.ing = ing
	}
	return srv, nil
}

// Ingestor exposes the streaming ingestion pipeline (nil for
// non-partitioned sessions), for operational tooling and tests.
func (s *Server) Ingestor() *stream.Ingestor { return s.ing }

// Close does nothing: the server runs no background work of its own to
// release. It is kept for callers that pair it with New.
func (s *Server) Close() {}

// countServed records one successfully served request (one 200 response):
// exactly once, when its 200 is written, so a mid-group refusal never
// leaves phantom served requests behind.
func (s *Server) countServed() {
	s.queries.Add(1)
}

// QueryRequest is the /query payload.
type QueryRequest struct {
	SQL string `json:"sql"`
}

// QueryResponse is the /query result.
type QueryResponse struct {
	Fraction float64 `json:"fraction"`
	Count    float64 `json:"count"`
	Source   string  `json:"source"`
	Paid     float64 `json:"paid"`
	// Remaining is ε_G minus the average consumed budget.
	Remaining float64 `json:"remaining_budget"`
}

// ErrorResponse carries a machine-readable error kind plus a message.
type ErrorResponse struct {
	// Kind is one of "parse", "exhausted", "internal", "bad-request", or
	// "conflict" (restore into a server that already began serving).
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// writeResult answers 200 with v appended by enc, which fails only on a
// number JSON has no form for: that is a 500.
func writeResult[T any](w *Response, enc func([]byte, *T) ([]byte, error), v *T) {
	body, err := enc(w.Body[:0], v)
	if errors.Is(err, errNotFinite) {
		writeError(w, StatusInternalServerError, "internal", err.Error())
		return
	}
	writeBody(w, StatusOK, body)
}

// answer is the one step a statement takes, whichever route carries it:
// a /query, each /groupby cell and each /query/batch element. The
// builder's cache key is rendered into the connection's scratch, and the
// session plans and probes by that key (Lookup); only a miss builds the
// query, into the scratch over that key, and it then pays, executes and
// fills (AnswerPlan). keyed is false when the builder holds no query: err
// is then its refusal, before the session saw the statement. From the
// body read to the response written, an exact hit allocates nothing and a
// miss whose tree nodes exist allocates nothing it does not keep.
func (s *Server) answer(sc *scratch, b *query.Builder) (ans core.Answer, keyed bool, err error) {
	if sc.key, err = b.AppendKey(sc.key[:0]); err != nil {
		return core.Answer{}, false, err
	}
	key := view(sc.key)
	ans, pl, hit, err := s.sess.Lookup(key)
	if err == nil && !hit {
		if err = b.BuildInto(&sc.q, key); err == nil {
			pl.Query = &sc.q
			ans, err = s.sess.AnswerPlan(pl)
		}
	}
	return ans, true, err
}

// handleQuery answers one statement: it is walked into a Builder on this
// frame and takes the answer step.
func (s *Server) handleQuery(w *Response, r *Request) {
	sql, ok := decodeSQL(w, r)
	if !ok {
		return
	}
	var b query.Builder
	table, err := s.parser.ParseInto(sql, &b)
	if err != nil {
		writeError(w, StatusBadRequest, "parse", err.Error())
		return
	}
	if !strings.EqualFold(table, s.table) {
		writeError(w, StatusBadRequest, "parse",
			fmt.Sprintf("unknown table %q (have %q)", table, s.table))
		return
	}

	ans, keyed, err := s.answer(r.scratchFor(), &b)
	switch {
	case !keyed:
		writeError(w, StatusBadRequest, "parse", err.Error())
		return
	case errors.Is(err, accountant.ErrBudgetExhausted):
		s.refusals.Add(1)
		// 429 communicates "resource exhausted" without leaking anything
		// beyond what the public accountant state already reveals.
		writeError(w, StatusTooManyRequests, "exhausted", "global privacy budget exhausted")
		return
	case err != nil:
		writeError(w, StatusUnprocessableEntity, "bad-request", err.Error())
		return
	}
	// Scale the fraction by the row count of the window the answer
	// actually covered (carried on the Answer): re-reading the dataset
	// here would race streaming arrivals, inflating the count with rows
	// the released fraction never saw — and its error used to be
	// discarded, silently reporting a count computed from n=0.
	body, err := appendQueryResponse(w.Body[:0], &QueryResponse{
		Fraction:  ans.Value,
		Count:     ans.Value * float64(ans.Rows),
		Source:    string(ans.Source),
		Paid:      ans.Paid,
		Remaining: s.sess.Accountant().Global() - s.sess.AverageSpent(),
	})
	if err != nil {
		writeError(w, StatusInternalServerError, "internal", err.Error())
		return
	}
	s.countServed()
	writeBody(w, StatusOK, body)
}

// GroupRow is one GROUP BY cell in a /groupby response.
type GroupRow struct {
	Values   []string `json:"values"` // level names of the grouped columns
	Fraction float64  `json:"fraction"`
	Count    float64  `json:"count"`
	Source   string   `json:"source"`
}

// GroupByResponse is the /groupby result.
type GroupByResponse struct {
	GroupBy []string   `json:"group_by"`
	Rows    []GroupRow `json:"rows"`
	Paid    float64    `json:"paid"`
}

// handleGroupBy decomposes a GROUP BY statement into primitive queries
// (§6.1's methodology) and answers each through the session, as /query
// answers a statement: the statement is walked once into a base builder,
// and each cell, a copy of it restricted to the cell, takes the answer
// step. Each primitive query is individually atomic against the
// accountant, and a group interrupted by budget exhaustion withholds its
// partial results.
// Counters: the session counts each group's answer (answers/by_source) as
// it is released, but the request counts as served only when the 200 is
// written — a mid-group refusal is a refusal, never a served request.
func (s *Server) handleGroupBy(w *Response, r *Request) {
	sql, ok := decodeSQL(w, r)
	if !ok {
		return
	}
	sc := r.scratchFor()
	var base query.Builder
	table, groupBy, err := s.parser.ParseGroupedInto(sql, &base, sc.groupBy)
	sc.groupBy = groupBy
	if err != nil {
		writeError(w, StatusBadRequest, "parse", err.Error())
		return
	}
	if !strings.EqualFold(table, s.table) {
		writeError(w, StatusBadRequest, "parse",
			fmt.Sprintf("unknown table %q (have %q)", table, s.table))
		return
	}

	sc.cells, sc.vals = sc.cells[:0], sc.vals[:0]
	paid := 0.0
	for c := range s.parser.Cells(groupBy) {
		var cell query.Builder
		cell, sc.vals = s.parser.Cell(&base, groupBy, c, sc.vals)
		ans, _, err := s.answer(sc, &cell)
		if errors.Is(err, accountant.ErrBudgetExhausted) {
			s.refusals.Add(1)
			writeError(w, StatusTooManyRequests, "exhausted",
				"global privacy budget exhausted mid-group; partial results withheld")
			return
		}
		if err != nil {
			writeError(w, StatusUnprocessableEntity, "bad-request", err.Error())
			return
		}
		sc.cells = append(sc.cells, groupCell{
			fraction: ans.Value,
			count:    ans.Value * float64(ans.Rows),
			source:   ans.Source,
		})
		paid += ans.Paid
	}
	body, err := appendGroupByResponse(w.Body[:0], &s.names, groupBy, sc.cells, sc.vals, paid)
	if err != nil {
		writeError(w, StatusInternalServerError, "internal", err.Error())
		return
	}
	s.countServed()
	writeBody(w, StatusOK, body)
}

// AppendRequest is the /append payload: one batch of partition arrivals.
// Each arrival's counts are dense per-bin row counts over the public
// domain; omitted counts register an empty partition.
type AppendRequest struct {
	Partitions []appendPartition `json:"partitions"`
}

// appendPartition is one AppendRequest arrival, named for the scanner.
type appendPartition = struct {
	Counts []int `json:"counts"`
}

// AppendResponse reports the partition index range one batch was assigned.
type AppendResponse struct {
	Start int `json:"start"`
	End   int `json:"end"`
	// Partitions is the store's partition count as the batch left it
	// (consistent with Start/End even when later batches land first).
	Partitions int `json:"partitions"`
}

// handleAppend applies one batch of arrivals through the streaming
// ingestor on the request's own goroutine, so a 200 means the partitions
// are queryable, loaded, and (in streaming mode) warm-started. A body past
// maxAppendBody, or a batch of more than maxAppendPartitions, is a 413
// that appends nothing. The batch is decoded into the connection's
// scratch and applied from there, before the connection can reuse it,
// so an /append allocates only the partitions the dataset and the tree
// keep.
func (s *Server) handleAppend(w *Response, r *Request) {
	if !posted(w, r) {
		return
	}
	if s.ing == nil {
		writeError(w, StatusBadRequest, "bad-request",
			"streaming ingestion needs a partitioned or streaming session")
		return
	}
	sc := r.scratchFor()
	defer sc.keepAppend(s.sess.Dataset().Domain().Size())
	if !decoded(w, sc.decodeAppend(view(r.Body))) {
		return
	}
	req := &sc.append
	if len(req.Partitions) == 0 {
		writeError(w, StatusBadRequest, "bad-request", "empty batch")
		return
	}
	if len(req.Partitions) > maxAppendPartitions {
		writeError(w, StatusRequestEntityTooLarge, "bad-request",
			"batch of more than 64 partitions")
		return
	}
	sc.arrivals = sc.arrivals[:0]
	for _, p := range req.Partitions {
		sc.arrivals = append(sc.arrivals, stream.Arrival{Counts: p.Counts})
	}
	tk, err := s.ing.Submit(sc.arrivals...)
	if err != nil {
		writeError(w, StatusUnprocessableEntity, "bad-request", err.Error())
		return
	}
	first, last, _ := tk.Wait()
	writeBody(w, StatusOK, appendAppendResponse(w.Body[:0], &AppendResponse{
		Start:      first,
		End:        last,
		Partitions: tk.Partitions(),
	}))
}

// RDPBudget is the /budget rdp section, present for Gaussian/Rényi
// sessions: the δ_G target, and the number of live sparse vectors, the
// interactive mechanisms being composed concurrently. The δ_G-converted
// consumption is average_spent and max_spent: there is one set of books.
type RDPBudget struct {
	Delta          float64 `json:"delta"`
	LiveMechanisms int     `json:"live_mechanisms"`
}

// BudgetResponse is the /budget result. Queries counts served requests
// (200 responses); Answers and BySource count primitive answers, the
// session's Queries and SourceCounts — a /groupby request contributes one
// served request and one answer per group, so BySource sums to Answers,
// not Queries.
type BudgetResponse struct {
	Global       float64          `json:"global"`
	AverageSpent float64          `json:"average_spent"`
	MaxSpent     float64          `json:"max_spent"`
	PerPartition []float64        `json:"per_partition"`
	Queries      int64            `json:"queries_answered"`
	Answers      int64            `json:"answers"`
	Refusals     int64            `json:"refusals"`
	BySource     map[string]int64 `json:"by_source"`
	RDP          *RDPBudget       `json:"rdp,omitempty"`
}

// handleBudget serves accountant state without taking any server-level
// lock. Every budget figure of one response derives from a single
// SpentVector() read — one acquisition of the accountant's lock — so
// max_spent == max(per_partition) and average_spent ==
// mean(per_partition) hold in every response, whatever is being paid
// concurrently. The counters are atomics read after it.
func (s *Server) handleBudget(w *Response, r *Request) {
	if r.Method != MethodGet {
		writeError(w, StatusMethodNotAllowed, "bad-request", "GET only")
		return
	}
	acct := s.sess.Accountant()
	per := acct.SpentVector()
	sum, max := 0.0, 0.0
	for _, v := range per {
		sum += v
		if v > max {
			max = v
		}
	}
	avg := 0.0
	if len(per) > 0 {
		avg = sum / float64(len(per))
	}
	counts := s.sess.SourceCounts()
	bySource := make(map[string]int64, len(counts))
	for src, v := range counts {
		bySource[string(src)] = int64(v)
	}
	resp := BudgetResponse{
		Global:       acct.Global(),
		AverageSpent: avg,
		MaxSpent:     max,
		PerPartition: per,
		Queries:      s.queries.Load(),
		Answers:      int64(s.sess.Queries()),
		Refusals:     s.refusals.Load(),
		BySource:     bySource,
	}
	if acct.Orders() != nil {
		resp.RDP = &RDPBudget{
			Delta:          acct.Delta(),
			LiveMechanisms: s.sess.LiveSparseVectors(),
		}
	}
	writeResult(w, appendBudgetResponse, &resp)
}

// IngestionStats is the /schema ingestion section for sessions with a
// streaming pipeline: the ingestor's counters plus the query pipeline's
// single-flight deduplication count.
type IngestionStats struct {
	// Batches/Partitions/Rows/WarmStarted are the ingestor's counters;
	// Batches counts the /append requests served (200 responses).
	Batches     int64 `json:"batches"`
	Partitions  int64 `json:"partitions_ingested"`
	Rows        int64 `json:"rows_ingested"`
	WarmStarted int64 `json:"warm_started_leaves"`
	// FlightDeduped counts answers shared from a concurrent identical
	// flight instead of executing (single-flight window dedup).
	FlightDeduped int64 `json:"flight_deduped"`
}

// CacheStats is the /schema cache section: the storage backend's
// operation counters and memory accounting (hit/miss/eviction/bytes,
// the cap of a bounded backend). All data-independent operational
// state.
type CacheStats struct {
	// Backend names the storage backend ("arena", "bounded-slru").
	Backend string `json:"backend"`
	// Entries/Bytes are resident backend state (Bytes counts payload: key
	// bytes plus 8 a value); ResidentBytes is the memory the in-memory
	// backend holds for them, 0 from one that does not count it;
	// CapBytes the configured bound on Bytes (0 = unbounded).
	Entries       int `json:"entries"`
	Bytes         int `json:"bytes"`
	ResidentBytes int `json:"resident_bytes"`
	CapBytes      int `json:"cap_bytes,omitempty"`
	// Hits/Misses/Evictions are backend-level Get/eviction counters;
	// every exact hit is a store hit, and every store miss an exact miss,
	// so Hits/Misses are the session's exact cache counters too.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// SetErrors counts fills the backend refused (the paid answer was
	// served; a repeat re-executes).
	SetErrors int64 `json:"set_errors"`
}

// SchemaResponse is the /schema result: only public metadata (ingestion
// counters are data-independent operational state).
type SchemaResponse struct {
	Table      string          `json:"table"`
	Domain     string          `json:"domain"`
	Attributes []string        `json:"attributes"`
	Rows       int             `json:"rows"`
	Partitions int             `json:"partitions"`
	Cache      *CacheStats     `json:"cache"`
	Ingestion  *IngestionStats `json:"ingestion,omitempty"`
}

// handleSchema serves public metadata; it touches no session state beyond
// the dataset's own read-locked counters and the atomic ingestion stats.
func (s *Server) handleSchema(w *Response, r *Request) {
	if r.Method != MethodGet {
		writeError(w, StatusMethodNotAllowed, "bad-request", "GET only")
		return
	}
	dom := s.sess.Dataset().Domain()
	attrs := make([]string, dom.NumAttrs())
	for i := range attrs {
		a := dom.Attr(i)
		attrs[i] = fmt.Sprintf("%s(%d)", a.Name, a.Card)
	}
	st := s.sess.StoreStats()
	resp := SchemaResponse{
		Table:      s.table,
		Domain:     dom.String(),
		Attributes: attrs,
		Rows:       s.sess.Dataset().NRowsAll(),
		Partitions: s.sess.Dataset().Partitions(),
		Cache: &CacheStats{
			Backend:       st.Backend,
			Entries:       st.Entries,
			Bytes:         st.Bytes,
			ResidentBytes: st.ResidentBytes,
			CapBytes:      st.CapBytes,
			Hits:          st.Hits,
			Misses:        st.Misses,
			Evictions:     st.Evictions,
			SetErrors:     st.SetErrors,
		},
	}
	if s.ing != nil {
		st := s.ing.Stats()
		resp.Ingestion = &IngestionStats{
			Batches:       st.Batches,
			Partitions:    st.Partitions,
			Rows:          st.Rows,
			WarmStarted:   st.WarmStarted,
			FlightDeduped: int64(s.sess.Deduped()),
		}
	}
	writeResult(w, appendSchemaResponse, &resp)
}

// handleSnapshot answers the session's durable state as a persist
// envelope: the block accountant (RDP curves included), the exact cache,
// tree node state and the dataset its appends grew, captured with no
// append mid-application.
func (s *Server) handleSnapshot(w *Response, r *Request) {
	if r.Method != MethodGet {
		writeError(w, StatusMethodNotAllowed, "bad-request", "GET only")
		return
	}
	buf := bytes.NewBuffer(w.Body[:0])
	_ = s.sess.SaveState(buf) // a capture fails only on its writer, and a bytes.Buffer never does
	w.Status, w.ContentType, w.Body = StatusOK, "application/octet-stream", buf.Bytes()
}

// RestoreResponse summarizes a successful POST /restore.
type RestoreResponse struct {
	Partitions   int     `json:"partitions"`
	AverageSpent float64 `json:"average_spent"`
}

// handleRestore loads a snapshot (the POST body) into the session, whose
// restore window decides whether it may: a server that has begun serving
// answers 409 (core.ErrAlreadyServing) — refuseRestore gives that answer
// from the head, before the body is read. Envelope failures map to typed
// statuses: input that is not a snapshot or from another format version
// is 400; a section the session refuses (wrong mode, another dataset,
// foreign accounting, a malformed payload) is 422. Every section stages
// before any applies, so a refused restore leaves the server as it was,
// and after a 200 every restored section is applied and queryable. The
// front end has read the whole body before the handler runs, so a slow
// upload never holds the session lock that requests arriving meanwhile
// wait on.
func (s *Server) handleRestore(w *Response, r *Request) {
	if !posted(w, r) {
		return
	}
	err := s.sess.LoadState(bytes.NewReader(r.Body))
	switch {
	case err == nil:
	case errors.Is(err, core.ErrAlreadyServing):
		writeError(w, StatusConflict, "conflict", err.Error())
		return
	case errors.Is(err, persist.ErrBadMagic), errors.Is(err, persist.ErrBadVersion),
		errors.Is(err, persist.ErrTruncated):
		writeError(w, StatusBadRequest, "bad-request", err.Error())
		return
	default:
		writeError(w, StatusUnprocessableEntity, "bad-request", err.Error())
		return
	}
	// LoadState is fully synchronous, so a 200 here means every section
	// is queryable.
	writeResult(w, appendRestoreResponse, &RestoreResponse{
		Partitions:   s.sess.Dataset().Partitions(),
		AverageSpent: s.sess.AverageSpent(),
	})
}

// refuseRestore answers a POST /restore from its head alone once the
// restore window has closed, so a server that cannot take a snapshot
// never reads one: a client cannot make a live server buffer an
// arbitrarily large body just to refuse it.
func (s *Server) refuseRestore(w *Response, r *Request) bool {
	if r.Method != MethodPost || !s.sess.Serving() {
		return false
	}
	writeError(w, StatusConflict, "conflict", core.ErrAlreadyServing.Error())
	return true
}
