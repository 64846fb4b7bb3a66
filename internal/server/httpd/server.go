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
// Restore runs before serving, and the server's boot latch alone decides
// when it may: the first /query, /query/batch, /groupby or /append closes
// the restore window for good (a later /restore is 409, answered from its
// head before any of its body is read), a request that arrives while a
// restore runs waits for it, and a restore that failed after it began
// mutating leaves the server refusing every analyst request and every
// snapshot with 503 "corrupt" until it is restarted.
// Once the window is closed the latch is one atomic load. Otherwise the
// server holds no lock of its own: the session's query pipeline is
// concurrency-safe (lock-free planning and exact-cache probes, execution
// that locks only around state updates, thread-safe accounting), so request goroutines flow straight
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
	"io"
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

	// live is the boot latch: set by the first analyst request or a
	// successful restore, after which /restore is 409. bootMu serializes
	// a restore against the requests and snapshots that arrive before
	// live; dead, under it, records a restore that failed after it began
	// mutating. live and dead are never both set.
	live   atomic.Bool
	bootMu sync.Mutex
	dead   bool

	// queries counts served requests: exactly one per 200 response, so
	// client-observed successes always equal this counter — including
	// for /groupby, whose many primitive answers serve one request.
	queries  atomic.Int64
	refusals atomic.Int64
	// answers counts primitive answers released through the session (a
	// /groupby request contributes one per group); bySource splits it
	// per execution path (exact-hit, pmw-r1, ..., tree). Both are
	// answer-level and maintained with atomics on the hot path.
	answers  atomic.Int64
	bySource map[core.Source]*atomic.Int64
	appends  atomic.Int64

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
	bySource := make(map[core.Source]*atomic.Int64, len(core.Sources))
	for _, src := range core.Sources {
		bySource[src] = new(atomic.Int64)
	}
	srv := &Server{
		sess:        sess,
		parser:      sqlparser.New(sess.Dataset().Domain()),
		names:       quoteNames(sess.Dataset().Domain()),
		table:       table,
		bySource:    bySource,
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
		// The server's store is in-memory and /append grows it, so
		// snapshots must carry the dataset itself: without it, a
		// /snapshot taken after any append could never restore into a
		// freshly-booted twin (its rebuilt dataset would be smaller).
		sess.PersistDataset()
	}
	return srv, nil
}

// Ingestor exposes the streaming ingestion pipeline (nil for
// non-partitioned sessions), for operational tooling and tests.
func (s *Server) Ingestor() *stream.Ingestor { return s.ing }

// Close does nothing: the server runs no background work of its own to
// release. It is kept for callers that pair it with New.
func (s *Server) Close() {}

// countAnswer updates the answer-level counters for one released answer.
// It deliberately does not touch the served-request counter: a request is
// counted by countServed exactly once, when its 200 is written, so a
// mid-group refusal never leaves phantom served requests behind.
func (s *Server) countAnswer(src core.Source) {
	s.answers.Add(1)
	if c, ok := s.bySource[src]; ok {
		c.Add(1)
	}
}

// countServed records one successfully served request (one 200 response).
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
	// Kind is one of "parse", "exhausted", "internal", "bad-request",
	// "conflict" (restore into a server that already began serving), or
	// "corrupt" (a failed restore left the session undefined; restart
	// required).
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

// serving passes one analyst request through the boot latch, before its
// first session call: it closes the restore window, waiting out a restore
// in progress, or answers 503 "corrupt" after a restore failed midway.
func (s *Server) serving(w *Response) bool {
	if s.live.Load() {
		return true
	}
	s.bootMu.Lock()
	dead := s.dead
	if !dead {
		s.live.Store(true)
	}
	s.bootMu.Unlock()
	if dead {
		writeError(w, StatusServiceUnavailable, "corrupt", core.ErrStateCorrupt.Error())
	}
	return !dead
}

// handleQuery answers one statement key first: the statement is walked
// into a Builder on this frame and its cache key rendered into the
// connection's scratch, and the session plans and probes by that key.
// Only a miss builds the query, into the scratch over that key, and it
// then pays, executes and fills. From the body read to the response
// written, an exact hit allocates nothing and a miss whose tree nodes
// exist allocates nothing it does not keep.
func (s *Server) handleQuery(w *Response, r *Request) {
	sql, ok := decodeSQL(w, r)
	if !ok || !s.serving(w) {
		return
	}
	sc := r.scratchFor()
	var b query.Builder
	table, err := s.parser.ParseInto(sql, &b)
	if err == nil {
		sc.key, err = b.AppendKey(sc.key[:0])
	}
	if err != nil {
		writeError(w, StatusBadRequest, "parse", err.Error())
		return
	}
	if !strings.EqualFold(table, s.table) {
		writeError(w, StatusBadRequest, "parse",
			fmt.Sprintf("unknown table %q (have %q)", table, s.table))
		return
	}

	key := view(sc.key)
	ans, pl, hit, err := s.sess.Lookup(key)
	if err == nil && !hit {
		if err = b.BuildInto(&sc.q, key); err == nil {
			pl.Query = &sc.q
			ans, err = s.sess.AnswerPlan(pl)
		}
	}
	switch {
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
	s.countAnswer(ans.Source)
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
// and each cell, a copy of it restricted to the cell, is probed by its key
// and built into the connection's scratch only on a miss. Each primitive
// query is individually atomic against the accountant, and a group
// interrupted by budget exhaustion withholds its partial results.
// Counters: each group's answer is counted at the answer level
// (answers/by_source) as it is released, but the request counts as
// served only when the 200 is written — a mid-group refusal is a refusal,
// never a served request.
func (s *Server) handleGroupBy(w *Response, r *Request) {
	sql, ok := decodeSQL(w, r)
	if !ok || !s.serving(w) {
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
		sc.key, err = cell.AppendKey(sc.key[:0])
		var ans core.Answer
		if err == nil {
			key := view(sc.key)
			var pl core.Plan
			var hit bool
			ans, pl, hit, err = s.sess.Lookup(key)
			if err == nil && !hit {
				if err = cell.BuildInto(&sc.q, key); err == nil {
					pl.Query = &sc.q
					ans, err = s.sess.AnswerPlan(pl)
				}
			}
		}
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
		s.countAnswer(ans.Source)
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
	if !s.serving(w) {
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
	s.appends.Add(1)
	writeBody(w, StatusOK, appendAppendResponse(w.Body[:0], &AppendResponse{
		Start:      first,
		End:        last,
		Partitions: tk.Partitions(),
	}))
}

// RDPBudget is the /budget rdp section, present for Gaussian/Rényi
// sessions: the δ_G target, the δ_G-converted consumption (the same
// figures as average_spent and max_spent — there is one set of books),
// and the number of live sparse vectors, the interactive mechanisms
// being composed concurrently.
type RDPBudget struct {
	Delta          float64 `json:"delta"`
	ConvertedSpent float64 `json:"converted_spent"`
	MaxConverted   float64 `json:"max_converted"`
	LiveMechanisms int     `json:"live_mechanisms"`
}

// BudgetResponse is the /budget result. Queries counts served requests
// (200 responses); Answers and BySource count primitive answers — a
// /groupby request contributes one served request and one answer per
// group, so BySource sums to Answers, not Queries.
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
	bySource := make(map[string]int64, len(s.bySource))
	for src, c := range s.bySource {
		if v := c.Load(); v > 0 {
			bySource[string(src)] = v
		}
	}
	resp := BudgetResponse{
		Global:       acct.Global(),
		AverageSpent: avg,
		MaxSpent:     max,
		PerPartition: per,
		Queries:      s.queries.Load(),
		Answers:      s.answers.Load(),
		Refusals:     s.refusals.Load(),
		BySource:     bySource,
	}
	if acct.Orders() != nil {
		resp.RDP = &RDPBudget{
			Delta:          acct.Delta(),
			ConvertedSpent: avg,
			MaxConverted:   max,
			LiveMechanisms: s.sess.LiveSparseVectors(),
		}
	}
	writeResult(w, appendBudgetResponse, &resp)
}

// IngestionStats is the /schema ingestion section for sessions with a
// streaming pipeline: the ingestor's counters plus the query pipeline's
// single-flight deduplication count.
type IngestionStats struct {
	// Appends counts served /append requests (200 responses).
	Appends int64 `json:"appends"`
	// Batches/Partitions/Rows/WarmStarted are the ingestor's counters.
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
// the cap of a bounded backend) plus the exact cache's hit rate. All
// data-independent operational state.
type CacheStats struct {
	// Backend names the storage backend ("arena", "bounded-slru").
	Backend string `json:"backend"`
	// Entries/Bytes are resident backend state (Bytes counts payload: keys
	// and encoded values); ResidentBytes is the memory the in-memory
	// backend holds for them, 0 from one that does not count it;
	// CapBytes the configured bound on Bytes (0 = unbounded).
	Entries       int `json:"entries"`
	Bytes         int `json:"bytes"`
	ResidentBytes int `json:"resident_bytes"`
	CapBytes      int `json:"cap_bytes,omitempty"`
	// Hits/Misses/Evictions are backend-level Get/eviction counters.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// DecodeErrors counts poisoned entries the backend found undecodable
	// (deleted and re-executed, never served): a data-integrity signal.
	// SetErrors counts fills the backend refused (the paid answer was
	// served; a repeat re-executes).
	DecodeErrors int64 `json:"decode_errors"`
	SetErrors    int64 `json:"set_errors"`
	// ExactHits/ExactMisses/ExactHitRate are the session's window-level
	// exact cache counters: every exact hit is a store hit, and every
	// store miss an exact miss.
	ExactHits    int     `json:"exact_hits"`
	ExactMisses  int     `json:"exact_misses"`
	ExactHitRate float64 `json:"exact_hit_rate"`
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
	exact := s.sess.ExactCache()
	exactHits, exactMisses := exact.Stats()
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
			DecodeErrors:  st.DecodeErrors,
			SetErrors:     st.SetErrors,
			ExactHits:     exactHits,
			ExactMisses:   exactMisses,
			ExactHitRate:  exact.HitRate(),
		},
	}
	if s.ing != nil {
		st := s.ing.Stats()
		resp.Ingestion = &IngestionStats{
			Appends:       s.appends.Load(),
			Batches:       st.Batches,
			Partitions:    st.Partitions,
			Rows:          st.Rows,
			WarmStarted:   st.WarmStarted,
			FlightDeduped: int64(s.sess.Deduped()),
		}
	}
	writeResult(w, appendSchemaResponse, &resp)
}

// SaveState writes the session's snapshot; GET /snapshot and
// turbo-server's checkpoints all take this path. Before the restore
// window closes it holds the latch for the whole capture, so a snapshot
// never interleaves with a restore, and after a restore failed midway it
// refuses with core.ErrStateCorrupt: undefined state must never
// overwrite a good checkpoint.
func (s *Server) SaveState(w io.Writer) error {
	if !s.live.Load() {
		s.bootMu.Lock()
		defer s.bootMu.Unlock()
		if s.dead {
			return core.ErrStateCorrupt
		}
	}
	return s.sess.SaveState(w)
}

// handleSnapshot streams the session's durable state as a persist
// envelope: the block accountant (RDP curves included), the exact cache,
// tree node state and the dataset its appends grew, captured with no
// append mid-application. The snapshot is buffered before the first
// byte is written so an encoding failure surfaces as a clean 500 rather
// than a torn 200 body.
func (s *Server) handleSnapshot(w *Response, r *Request) {
	if r.Method != MethodGet {
		writeError(w, StatusMethodNotAllowed, "bad-request", "GET only")
		return
	}
	buf := bytes.NewBuffer(w.Body[:0])
	err := s.SaveState(buf)
	if errors.Is(err, core.ErrStateCorrupt) {
		writeError(w, StatusServiceUnavailable, "corrupt", err.Error())
		return
	}
	if err != nil {
		writeError(w, StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Status, w.ContentType, w.Body = StatusOK, "application/octet-stream", buf.Bytes()
}

// RestoreResponse summarizes a successful POST /restore.
type RestoreResponse struct {
	Partitions   int     `json:"partitions"`
	Queries      int64   `json:"queries_answered"`
	AverageSpent float64 `json:"average_spent"`
}

// handleRestore loads a snapshot (the POST body) into the session,
// through the boot latch: a server that has begun serving answers 409,
// and one whose earlier restore failed midway 503 — refuseRestore gives
// both answers from the head, before the body is read, and they are
// checked again here under the latch. Envelope failures map
// to typed statuses: input that is not a snapshot or from another format
// version is 400; a section-level mismatch (wrong mode, another
// dataset, foreign accounting) is 422 and leaves the server usable. After a 200
// every restored section is applied and queryable. A failure after the restore began mutating
// (core.ErrStateCorrupt) is 500 "corrupt", and the server then refuses
// every analyst request and snapshot until it is restarted. The front end
// has read the whole body before the handler runs, so a slow upload never
// holds the latch that requests arriving meanwhile wait on.
func (s *Server) handleRestore(w *Response, r *Request) {
	if !posted(w, r) {
		return
	}
	s.bootMu.Lock()
	defer s.bootMu.Unlock()
	if s.restoreClosed(w) {
		return
	}
	err := s.sess.LoadState(bytes.NewReader(r.Body))
	switch {
	case err == nil:
		s.live.Store(true)
	case errors.Is(err, core.ErrStateCorrupt):
		s.dead = true
		writeError(w, StatusInternalServerError, "corrupt", err.Error())
		return
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
		Queries:      int64(s.sess.Queries()),
		AverageSpent: s.sess.AverageSpent(),
	})
}

// refuseRestore answers a POST /restore from its head alone once the
// restore window has closed, so a server that cannot take a snapshot
// never reads one: a client cannot make a live server buffer an
// arbitrarily large body just to refuse it.
func (s *Server) refuseRestore(w *Response, r *Request) bool {
	if r.Method != MethodPost {
		return false
	}
	s.bootMu.Lock()
	defer s.bootMu.Unlock()
	return s.restoreClosed(w)
}

// restoreClosed answers 503 after a restore failed midway and 409 once
// the server serves; the caller holds bootMu.
func (s *Server) restoreClosed(w *Response) bool {
	switch {
	case s.dead:
		writeError(w, StatusServiceUnavailable, "corrupt", core.ErrStateCorrupt.Error())
		return true
	case s.live.Load():
		writeError(w, StatusConflict, "conflict",
			"server already serving: restore runs before the first request")
		return true
	}
	return false
}
