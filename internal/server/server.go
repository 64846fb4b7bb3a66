// Package server exposes a Turbo-cached DP database as an HTTP service —
// the deployment shape the paper's introduction motivates: many untrusted
// analysts querying a trusted aggregate-only endpoint that enforces a
// global DP guarantee.
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
//	               (accountants incl. RDP curves, caches, tree, pending
//	               ingestion epochs)
//	POST /restore  → restore a snapshot into this fresh server, before it
//	               serves; 200 means every section — pending epochs
//	               included — is applied and queryable
//
// Restore runs before serving, and the server's boot latch alone decides
// when it may: the first /query, /query/batch, /groupby or /append closes
// the restore window for good (a later /restore is 409), a request that
// arrives while a restore runs waits for it, and a restore that failed
// after it began mutating leaves the server refusing every analyst
// request and every snapshot with 503 "corrupt" until it is restarted.
// Once the window is closed the latch is one atomic load. Otherwise the
// server holds no lock of its own: the session's query pipeline is
// concurrency-safe (lock-free planning and exact-cache probes, per-shard
// execution, thread-safe accounting), so request goroutines flow straight
// through; /append hands arrivals to the streaming ingestor, whose epochs
// keep racing queries accountable. With WithAppendBacklog the ingestor's
// submission queue is bounded and an overflowing /append sheds with 503 +
// Retry-After instead of blocking the handler. GET /budget and GET
// /schema are lock-free reads of accountant and public metadata that never
// close the restore window, and the server's own counters are atomics.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/sqlparser"
	"repro/internal/stream"
)

// Server handles HTTP analyst traffic over one Turbo session.
type Server struct {
	sess   *core.Session
	parser *sqlparser.Parser
	table  string
	// ing is the streaming ingestion pipeline behind POST /append; nil
	// for non-partitioned sessions, which cannot grow.
	ing *stream.Ingestor

	// appendBacklog bounds the ingestor's submission queue (0 keeps it
	// unbounded); overflow sheds with 503 + Retry-After.
	appendBacklog int
	// retryAfter is the Retry-After hint (seconds) on shed appends.
	retryAfter int

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
}

// Option configures a Server at construction.
type Option func(*Server)

// WithAppendBacklog bounds the streaming ingestor's submission queue to n
// batches; an overflowing POST /append returns 503 with a Retry-After
// header instead of queueing without bound. n <= 0 keeps the queue
// unbounded (the default).
func WithAppendBacklog(n int) Option {
	return func(s *Server) { s.appendBacklog = n }
}

// New creates a server over sess; table is the (single) table name the
// SQL surface accepts. Partitioned and streaming sessions get a streaming
// ingestor behind POST /append; call Close to release its worker.
func New(sess *core.Session, table string, opts ...Option) (*Server, error) {
	if sess == nil {
		return nil, errors.New("server: nil session")
	}
	if table == "" {
		return nil, errors.New("server: empty table name")
	}
	bySource := make(map[core.Source]*atomic.Int64, len(core.Sources))
	for _, src := range core.Sources {
		bySource[src] = new(atomic.Int64)
	}
	srv := &Server{
		sess:       sess,
		parser:     sqlparser.New(sess.Dataset().Domain()),
		table:      table,
		bySource:   bySource,
		retryAfter: 1,
	}
	for _, opt := range opts {
		opt(srv)
	}
	if sess.Tree() != nil {
		ing, err := stream.NewIngestor(sess, stream.WithMaxPending(srv.appendBacklog))
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

// Close drains and stops the streaming ingestor (no-op without one).
func (s *Server) Close() {
	if s.ing != nil {
		s.ing.Close()
	}
}

// Handler returns the HTTP routing for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/query/batch", s.handleQueryBatch)
	mux.HandleFunc("/groupby", s.handleGroupBy)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/budget", s.handleBudget)
	mux.HandleFunc("/schema", s.handleSchema)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/restore", s.handleRestore)
	return mux
}

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
	// "overloaded" (transient: shed by the bounded ingest queue, retry
	// later), "conflict" (restore into a server that already began
	// serving), or "corrupt" (a failed restore left the session undefined;
	// restart required).
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// serving passes one analyst request through the boot latch, before its
// first session call: it closes the restore window, waiting out a restore
// in progress, or answers 503 "corrupt" after a restore failed midway.
func (s *Server) serving(w http.ResponseWriter) bool {
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
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{"corrupt", core.ErrStateCorrupt.Error()})
	}
	return !dead
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeAnalyst(w, r, &req) || !s.serving(w) {
		return
	}
	st, err := s.parser.Parse(req.SQL)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"parse", err.Error()})
		return
	}
	if !strings.EqualFold(st.Table, s.table) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"parse",
			fmt.Sprintf("unknown table %q (have %q)", st.Table, s.table)})
		return
	}

	ans, err := s.sess.Answer(st.Query)
	switch {
	case errors.Is(err, accountant.ErrBudgetExhausted):
		s.refusals.Add(1)
		// 429 communicates "resource exhausted" without leaking anything
		// beyond what the public accountant state already reveals.
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{"exhausted",
			"global privacy budget exhausted"})
		return
	case err != nil:
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{"bad-request", err.Error()})
		return
	}
	// Scale the fraction by the row count of the window the answer
	// actually covered (carried on the Answer): re-reading the dataset
	// here would race streaming arrivals, inflating the count with rows
	// the released fraction never saw — and its error used to be
	// discarded, silently reporting a count computed from n=0.
	s.countAnswer(ans.Source)
	buf := bufPool.Get().(*bytes.Buffer)
	body, err := appendQueryResponse(buf.AvailableBuffer(), &QueryResponse{
		Fraction:  ans.Value,
		Count:     ans.Value * float64(ans.Rows),
		Source:    string(ans.Source),
		Paid:      ans.Paid,
		Remaining: s.sess.Accountant().Global() - s.sess.AverageSpent(),
	})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{"internal", err.Error()})
		return
	}
	s.countServed()
	writeAppended(w, buf, body)
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
// (§6.1's methodology) and answers each through the session. The
// decomposed queries flow through the same concurrent pipeline as /query
// traffic; each primitive query is individually atomic against the
// accountant, and a group interrupted by budget exhaustion withholds its
// partial results. Counters: each group's answer is counted at the
// answer level (answers/by_source) as it is released, but the request
// counts as served only when the 200 is written — a mid-group refusal is
// a refusal, never a served request.
func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeAnalyst(w, r, &req) || !s.serving(w) {
		return
	}
	gs, err := s.parser.ParseGrouped(req.SQL)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"parse", err.Error()})
		return
	}
	if !strings.EqualFold(gs.Table, s.table) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"parse",
			fmt.Sprintf("unknown table %q (have %q)", gs.Table, s.table)})
		return
	}

	dom := s.sess.Dataset().Domain()
	resp := GroupByResponse{}
	for _, attr := range gs.GroupBy {
		resp.GroupBy = append(resp.GroupBy, dom.Attr(attr).Name)
	}
	for _, g := range gs.Groups {
		ans, err := s.sess.Answer(g.Query)
		if errors.Is(err, accountant.ErrBudgetExhausted) {
			s.refusals.Add(1)
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{"exhausted",
				"global privacy budget exhausted mid-group; partial results withheld"})
			return
		}
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{"bad-request", err.Error()})
			return
		}
		s.countAnswer(ans.Source)
		row := GroupRow{
			Fraction: ans.Value,
			Count:    ans.Value * float64(ans.Rows),
			Source:   string(ans.Source),
		}
		for j, v := range g.Values {
			row.Values = append(row.Values, dom.LevelName(gs.GroupBy[j], v))
		}
		resp.Rows = append(resp.Rows, row)
		resp.Paid += ans.Paid
	}
	s.countServed()
	writeJSON(w, http.StatusOK, resp)
}

// AppendRequest is the /append payload: one batch of partition arrivals.
// Each arrival's counts are dense per-bin row counts over the public
// domain; omitted counts register an empty partition.
type AppendRequest struct {
	Partitions []struct {
		Counts []int `json:"counts"`
	} `json:"partitions"`
}

// AppendResponse reports the partition index range one batch was assigned.
type AppendResponse struct {
	Start int `json:"start"`
	End   int `json:"end"`
	// Partitions is the store's partition count as of the batch's epoch
	// (consistent with Start/End even when later epochs land first).
	Partitions int `json:"partitions"`
}

// handleAppend feeds one batch of arrivals through the streaming ingestion
// pipeline and blocks until its epoch is applied, so a 200 means the
// partitions are queryable, loaded, and (in streaming mode) warm-started.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"bad-request", "POST only"})
		return
	}
	if s.ing == nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"bad-request",
			"streaming ingestion needs a partitioned or streaming session"})
		return
	}
	var req AppendRequest
	body := http.MaxBytesReader(w, r.Body, maxAppendBody(s.sess.Dataset().Domain().Size()))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, bodyErrorStatus(err), ErrorResponse{"bad-request", err.Error()})
		return
	}
	if len(req.Partitions) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"bad-request", "empty batch"})
		return
	}
	if !s.serving(w) {
		return
	}
	arrivals := make([]stream.Arrival, len(req.Partitions))
	for i, p := range req.Partitions {
		arrivals[i] = stream.Arrival{Counts: p.Counts}
	}
	tk, err := s.ing.Submit(arrivals...)
	if errors.Is(err, stream.ErrBacklogFull) {
		// Backpressure: the bounded submission queue is at capacity. Shed
		// with a retry hint instead of parking the handler goroutine (and
		// the client connection) behind an unbounded backlog.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter))
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{"overloaded", err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{"bad-request", err.Error()})
		return
	}
	first, last, err := tk.Wait()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{"bad-request", err.Error()})
		return
	}
	s.appends.Add(1)
	writeJSON(w, http.StatusOK, AppendResponse{
		Start:      first,
		End:        last,
		Partitions: tk.Partitions(),
	})
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
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"bad-request", "GET only"})
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
	writeJSON(w, http.StatusOK, resp)
}

// IngestionStats is the /schema ingestion section for sessions with a
// streaming pipeline: the ingestor's counters plus the query pipeline's
// single-flight deduplication count.
type IngestionStats struct {
	// Appends counts served /append requests (200 responses).
	Appends int64 `json:"appends"`
	// Batches/Epochs/Partitions/Rows/WarmStarted are the ingestor's
	// counters; Pending is the instantaneous queue depth.
	Batches     int64 `json:"batches"`
	Epochs      int64 `json:"epochs"`
	Partitions  int64 `json:"partitions_ingested"`
	Rows        int64 `json:"rows_ingested"`
	WarmStarted int64 `json:"warm_started_leaves"`
	Pending     int64 `json:"pending"`
	// Shed counts /append submissions refused by the bounded queue.
	Shed int64 `json:"shed"`
	// FlightDeduped counts answers shared from a concurrent identical
	// flight instead of executing (single-flight window dedup).
	FlightDeduped int64 `json:"flight_deduped"`
}

// CacheStats is the /schema cache section: the storage backend's
// operation counters and memory accounting (hit/miss/eviction/bytes,
// caps for bounded backends) plus the exact caches' hit rates. All
// data-independent operational state.
type CacheStats struct {
	// Backend names the storage backend ("striped-map", "bounded-slru").
	Backend string `json:"backend"`
	// Entries/Bytes are resident backend state (Bytes counts payload: keys
	// and encoded values); ResidentBytes is the memory the in-memory
	// backend holds for them, 0 from one that does not count it;
	// CapEntries/CapBytes the configured bounds (0 = unbounded).
	Entries       int `json:"entries"`
	Bytes         int `json:"bytes"`
	ResidentBytes int `json:"resident_bytes"`
	CapEntries    int `json:"cap_entries,omitempty"`
	CapBytes      int `json:"cap_bytes,omitempty"`
	// Hits/Misses/Evictions are backend-level Get/eviction counters.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// DecodeErrors counts poisoned entries the backend found undecodable
	// (deleted and re-executed, never served): a data-integrity signal.
	DecodeErrors int64 `json:"decode_errors"`
	// ExactHits/ExactMisses/ExactHitRate are the session's window-level
	// exact cache counters (fast map included); ExactStripes is its
	// namespace stripe count (>1 when striped by executor shard).
	ExactHits    int     `json:"exact_hits"`
	ExactMisses  int     `json:"exact_misses"`
	ExactHitRate float64 `json:"exact_hit_rate"`
	ExactStripes int     `json:"exact_stripes"`
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
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"bad-request", "GET only"})
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
			CapEntries:    st.CapEntries,
			CapBytes:      st.CapBytes,
			Hits:          st.Hits,
			Misses:        st.Misses,
			Evictions:     st.Evictions,
			DecodeErrors:  st.DecodeErrors,
			ExactHits:     exactHits,
			ExactMisses:   exactMisses,
			ExactHitRate:  exact.HitRate(),
			ExactStripes:  exact.Stripes(),
		},
	}
	if s.ing != nil {
		st := s.ing.Stats()
		resp.Ingestion = &IngestionStats{
			Appends:       s.appends.Load(),
			Batches:       st.Batches,
			Epochs:        st.Epochs,
			Partitions:    st.Partitions,
			Rows:          st.Rows,
			WarmStarted:   st.WarmStarted,
			Pending:       st.Pending,
			Shed:          st.Shed,
			FlightDeduped: int64(s.sess.Deduped()),
		}
	}
	writeJSON(w, http.StatusOK, resp)
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
// tree node state, and any pending ingestion epochs, captured under the
// ingestor's quiesce barrier. The snapshot is buffered before the first
// byte is written so an encoding failure surfaces as a clean 500 rather
// than a torn 200 body.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"bad-request", "GET only"})
		return
	}
	var buf bytes.Buffer
	err := s.SaveState(&buf)
	if errors.Is(err, core.ErrStateCorrupt) {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{"corrupt", err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{"internal", err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// RestoreResponse summarizes a successful POST /restore.
type RestoreResponse struct {
	Partitions   int     `json:"partitions"`
	Queries      int64   `json:"queries_answered"`
	AverageSpent float64 `json:"average_spent"`
}

// handleRestore loads a snapshot (the POST body) into the session,
// through the boot latch: a server that has begun serving answers 409,
// and one whose earlier restore failed midway 503. Envelope failures map
// to typed statuses: input that is not a snapshot or from another format
// version is 400; a section-level mismatch (wrong mode, stale dataset,
// foreign accounting) is 422 and leaves the server usable. After a 200
// every restored section — pending ingestion epochs included — is
// applied and queryable. A failure after the restore began mutating
// (core.ErrStateCorrupt) is 500 "corrupt", and the server then refuses
// every analyst request and snapshot until it is restarted.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"bad-request", "POST only"})
		return
	}
	// Read the whole body first: a slow upload must not hold the latch
	// that requests arriving meanwhile wait on.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"bad-request", err.Error()})
		return
	}
	s.bootMu.Lock()
	defer s.bootMu.Unlock()
	switch {
	case s.dead:
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{"corrupt", core.ErrStateCorrupt.Error()})
		return
	case s.live.Load():
		writeJSON(w, http.StatusConflict, ErrorResponse{"conflict", "server already serving: restore runs before the first request"})
		return
	}
	err = s.sess.LoadState(bytes.NewReader(body))
	switch {
	case err == nil:
		s.live.Store(true)
	case errors.Is(err, core.ErrStateCorrupt):
		s.dead = true
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{"corrupt", err.Error()})
		return
	case errors.Is(err, core.ErrAlreadyServing):
		writeJSON(w, http.StatusConflict, ErrorResponse{"conflict", err.Error()})
		return
	case errors.Is(err, persist.ErrBadMagic), errors.Is(err, persist.ErrBadVersion),
		errors.Is(err, persist.ErrTruncated):
		writeJSON(w, http.StatusBadRequest, ErrorResponse{"bad-request", err.Error()})
		return
	default:
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{"bad-request", err.Error()})
		return
	}
	// LoadState is fully synchronous — restored pending epochs are
	// applied (or have failed the restore) by the time it returns — so a
	// 200 here means every section is queryable.
	writeJSON(w, http.StatusOK, RestoreResponse{
		Partitions:   s.sess.Dataset().Partitions(),
		Queries:      int64(s.sess.Queries()),
		AverageSpent: s.sess.AverageSpent(),
	})
}
