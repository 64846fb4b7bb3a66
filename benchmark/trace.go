// The traced run: the same request prefix replayed at three depths on
// identically seeded twin sessions, with spans recorded from this file
// around the public functions each layer exposes.
//
//	socket    the real server; one client-side span per request
//	handler   in-process server.New(...).Handler().ServeHTTP
//	pipeline  the handler's steps called one by one
//
// A layer's self time is its span minus what its children cover; a depth's
// cost is the difference between its span and the next depth's.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/stream"
	"repro/internal/tree"
)

// Span names. plan and probe are isolated measurements: they repeat work
// core.answer does itself, so they run before the request's pipeline span
// opens and are roots of their own.
const (
	spSocket = iota
	spHandler
	spPipeline
	spDecode
	spParse
	spPlan
	spProbe
	spAnswer
	spAnswerBatch
	spGroupBy
	spAverageSpent
	spEncode
	spAppend
	spSave
	spLoad
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"socket", "handler", "pipeline", "server.decode", "sqlparser.parse", "core.plan", "cache.probe",
	"core.answer", "core.answer_batch", "core.groupby", "accountant.average_spent", "server.encode",
	"stream.append", "persist.save", "persist.load",
}

// span is one timed interval. parent indexes the same buffer, -1 for a
// root; spans of one request share req.
type span struct {
	name       uint8
	hit        bool // core.answer only: the answer was an exact hit
	parent     int32
	req        int32
	start, end time.Duration
}

// spanBuf is one connection's spans, appended in start order.
type spanBuf struct {
	t0    time.Time
	spans []span
}

func (b *spanBuf) begin(name uint8, parent, req int32) int32 {
	b.spans = append(b.spans, span{name: name, parent: parent, req: req, start: time.Since(b.t0)})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) finish(id int32) { b.spans[id].end = time.Since(b.t0) }

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := s.start
		for _, k := range kids {
			from, to := spans[k].start, spans[k].end
			if from < covered {
				from = covered
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// twin is an in-process session built exactly as cmd/turbo-server builds
// its own for the workload's flags and -seed 42.
type twin struct {
	sess    *core.Session
	srv     *server.Server
	handler http.Handler
	parser  *sqlparser.Parser
}

func newTwin(s *spec) (*twin, error) {
	ds, err := s.buildDataset()
	if err != nil {
		return nil, err
	}
	mode := core.Partitioned
	if s.mode == "streaming" {
		mode = core.Streaming
	}
	epsG, err := strconv.ParseFloat(s.flagValue("-epsg"), 64)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(core.Config{
		Mode: mode, Alpha: alpha, Beta: 0.001, EpsilonGlobal: epsG,
		Structure: tree.Binary, NodeExactCache: true, Seed: 42, Shards: runtime.NumCPU(),
	}, ds)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(sess, s.table)
	if err != nil {
		return nil, err
	}
	return &twin{sess: sess, srv: srv, handler: srv.Handler(), parser: sqlparser.New(ds.Domain())}, nil
}

// memWriter is the in-process ResponseWriter.
type memWriter struct {
	header http.Header
	status int
	buf    []byte
}

func (m *memWriter) Header() http.Header  { return m.header }
func (m *memWriter) WriteHeader(code int) { m.status = code }
func (m *memWriter) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

// handlerTarget calls the twin's http.Handler directly.
type handlerTarget struct {
	tw    *twin
	spans *spanBuf
}

func (t *handlerTarget) do(r *request, reqIdx int, buf []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, opPath[r.op], bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	w := &memWriter{header: http.Header{}, status: 200, buf: buf[:0]}
	id := t.spans.begin(spHandler, -1, int32(reqIdx))
	t.tw.handler.ServeHTTP(w, req)
	t.spans.finish(id)
	return w.status, w.buf, nil
}

func (t *handlerTarget) close() {}

// pipelineTarget performs the handler's steps one by one, a span around
// each. It answers with the same payloads the handler would, so the same
// checks apply to it.
type pipelineTarget struct {
	tw    *twin
	spans *spanBuf
}

func (t *pipelineTarget) close() {}

// timed runs fn inside a span.
func (t *pipelineTarget) timed(name uint8, parent, req int32, fn func()) int32 {
	id := t.spans.begin(name, parent, req)
	fn()
	t.spans.finish(id)
	return id
}

// isolate measures Planner.Plan and Exact.Get on q outside any request.
func (t *pipelineTarget) isolate(q *query.Query, req int32) {
	var pl core.Plan
	var err error
	t.timed(spPlan, -1, req, func() { pl, err = t.tw.sess.Planner().Plan(q) })
	if err == nil {
		t.timed(spProbe, -1, req, func() { t.tw.sess.ExactCache().Get(q, pl.Version) })
	}
}

// statusOf maps a session error to the status the server would send.
func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, accountant.ErrBudgetExhausted):
		return http.StatusTooManyRequests
	default:
		return http.StatusUnprocessableEntity
	}
}

func (t *pipelineTarget) queryResponse(ans core.Answer, root, req int32) *server.QueryResponse {
	resp := &server.QueryResponse{
		Fraction: ans.Value, Count: ans.Value * float64(ans.Rows),
		Source: string(ans.Source), Paid: ans.Paid,
	}
	t.timed(spAverageSpent, root, req, func() {
		resp.Remaining = t.tw.sess.Accountant().Global() - t.tw.sess.AverageSpent()
	})
	return resp
}

// firstQuery parses the first statement of a /query or /query/batch body,
// outside any span, for the isolated plan and probe measurements.
func (t *pipelineTarget) firstQuery(r *request) *query.Query {
	sql := ""
	switch r.op {
	case opQuery:
		var in server.QueryRequest
		if json.Unmarshal(r.body, &in) != nil {
			return nil
		}
		sql = in.SQL
	case opBatch:
		var in server.BatchQueryRequest
		if json.Unmarshal(r.body, &in) != nil || len(in.Queries) == 0 {
			return nil
		}
		sql = in.Queries[0]
	default:
		return nil
	}
	st, err := t.tw.parser.Parse(sql)
	if err != nil {
		return nil
	}
	return st.Query
}

func (t *pipelineTarget) do(r *request, reqIdx int, buf []byte) (int, []byte, error) {
	req := int32(reqIdx)
	// Plan and probe in isolation first, so the probe meets the entry in
	// the state (resident, spilled or absent) the request itself will.
	if q := t.firstQuery(r); q != nil {
		t.isolate(q, req)
	}
	root := t.spans.begin(spPipeline, -1, req)
	status, payload := t.steps(r, root, req)
	out := bytes.NewBuffer(buf[:0])
	var err error
	t.timed(spEncode, root, req, func() { err = json.NewEncoder(out).Encode(payload) })
	t.spans.finish(root)
	return status, out.Bytes(), err
}

// steps runs the handler's steps for r and returns the status and payload
// the handler would write.
func (t *pipelineTarget) steps(r *request, root, req int32) (int, any) {
	sess := t.tw.sess
	fail := func(code int, err error) (int, any) {
		return code, server.ErrorResponse{Kind: "bad-request", Message: err.Error()}
	}
	decode := func(into any) error {
		var err error
		t.timed(spDecode, root, req, func() { err = json.NewDecoder(bytes.NewReader(r.body)).Decode(into) })
		return err
	}
	answer := func(parent int32, q *query.Query) (core.Answer, error) {
		var ans core.Answer
		var err error
		id := t.timed(spAnswer, parent, req, func() { ans, err = sess.Answer(q) })
		t.spans.spans[id].hit = ans.Source == core.SourceExactHit
		return ans, err
	}

	switch r.op {
	case opQuery:
		var in server.QueryRequest
		if err := decode(&in); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		var st *sqlparser.Statement
		var err error
		t.timed(spParse, root, req, func() { st, err = t.tw.parser.Parse(in.SQL) })
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		ans, err := answer(root, st.Query)
		if err != nil {
			return fail(statusOf(err), err)
		}
		return http.StatusOK, t.queryResponse(ans, root, req)

	case opBatch:
		var in server.BatchQueryRequest
		if err := decode(&in); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		qs := make([]*query.Query, 0, len(in.Queries))
		for _, sql := range in.Queries {
			var st *sqlparser.Statement
			var err error
			t.timed(spParse, root, req, func() { st, err = t.tw.parser.Parse(sql) })
			if err != nil {
				return fail(http.StatusUnprocessableEntity, err)
			}
			qs = append(qs, st.Query)
		}
		var results []core.BatchResult
		t.timed(spAnswerBatch, root, req, func() { results = sess.AnswerBatch(qs) })
		items := make([]server.BatchItem, len(results))
		for i, res := range results {
			items[i] = server.BatchItem{Status: statusOf(res.Err)}
			if res.Err == nil {
				items[i].Result = t.queryResponse(res.Answer, root, req)
			}
		}
		return http.StatusOK, server.BatchQueryResponse{Results: items}

	case opGroupBy:
		var in server.QueryRequest
		if err := decode(&in); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		var gs *sqlparser.GroupedStatement
		var err error
		t.timed(spParse, root, req, func() { gs, err = t.tw.parser.ParseGrouped(in.SQL) })
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		resp := server.GroupByResponse{}
		loop := t.spans.begin(spGroupBy, root, req)
		for _, g := range gs.Groups {
			var ans core.Answer
			if ans, err = answer(loop, g.Query); err != nil {
				break
			}
			resp.Rows = append(resp.Rows, server.GroupRow{
				Fraction: ans.Value, Count: ans.Value * float64(ans.Rows), Source: string(ans.Source),
			})
			resp.Paid += ans.Paid
		}
		t.spans.finish(loop)
		if err != nil {
			return fail(statusOf(err), err)
		}
		return http.StatusOK, resp

	default: // opAppend
		var in server.AppendRequest
		if err := decode(&in); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		arrivals := make([]stream.Arrival, len(in.Partitions))
		for i, p := range in.Partitions {
			arrivals[i] = stream.Arrival{Counts: p.Counts}
		}
		var first, last, parts int
		var err error
		t.timed(spAppend, root, req, func() {
			var tk *stream.Ticket
			if tk, err = t.tw.srv.Ingestor().Submit(arrivals...); err == nil {
				if first, last, err = tk.Wait(); err == nil {
					parts = tk.Partitions()
				}
			}
		})
		if err != nil {
			return fail(http.StatusUnprocessableEntity, err)
		}
		return http.StatusOK, server.AppendResponse{Start: first, End: last, Partitions: parts}
	}
}

// counters is a point-in-time reading of a twin's public stats surfaces.
type counters struct {
	exactHits, exactMisses int
	storeGets              int64
	storeBytes             int
	maskHits, maskMisses   int64
	deduped                int
	locks                  uint64
	tree                   tree.Stats
	calibHits, calibMisses int64
	batches, epochs        int64
	warmStarted, shed      int64
}

func (tw *twin) counters() counters {
	var c counters
	c.exactHits, c.exactMisses = tw.sess.ExactCache().Stats()
	st := tw.sess.StoreStats()
	c.storeGets, c.storeBytes = st.Hits+st.Misses, st.Bytes
	c.maskHits, c.maskMisses = st.MaskHits, st.MaskMisses
	c.deduped = tw.sess.Deduped()
	c.locks = tw.sess.AdmissionLockAcquisitions()
	if t := tw.sess.Tree(); t != nil {
		c.tree = t.Stats()
		cs := t.Calibrator().Stats()
		c.calibHits, c.calibMisses = cs.Hits, cs.Misses
	}
	if ing := tw.srv.Ingestor(); ing != nil {
		is := ing.Stats()
		c.batches, c.epochs, c.warmStarted, c.shed = is.Batches, is.Epochs, is.WarmStarted, is.Shed
	}
	return c
}

// layerCounts turns the counter deltas of one replay into ratios.
func layerCounts(m map[string]float64, a, b counters, answers int) {
	n := float64(answers)
	hits, misses := float64(b.exactHits-a.exactHits), float64(b.exactMisses-a.exactMisses)
	gets := float64(b.storeGets - a.storeGets)
	m["cache.exact_hit_rate"] = ratio(hits, hits+misses)
	// Backend Gets include the tree's node-cache traffic, so on workloads
	// that miss this is a lower bound on the fast map's share.
	m["cache.fast_hit_rate"] = math.Max(0, 1-ratio(gets, hits+misses))
	m["store.gets_per_answer"] = ratio(gets, n)
	m["store.bytes"] = float64(b.storeBytes)
	m["core.flight_deduped"] = float64(b.deduped - a.deduped)
	m["core.batch_dedup_rate"] = ratio(float64(b.deduped-a.deduped), n)
	m["accountant.locks_per_answer"] = ratio(float64(b.locks-a.locks), n)
	m["dataset.mask_memo_hit_rate"] = ratio(float64(b.maskHits-a.maskHits),
		float64(b.maskHits-a.maskHits+b.maskMisses-a.maskMisses))
	m["noise.calib_memo_hit_rate"] = ratio(float64(b.calibHits-a.calibHits),
		float64(b.calibHits-a.calibHits+b.calibMisses-a.calibMisses))
	tq := float64(b.tree.Queries - a.tree.Queries)
	pass, failN := float64(b.tree.SVPasses-a.tree.SVPasses), float64(b.tree.SVFailures-a.tree.SVFailures)
	m["tree.sv_pass_rate"] = ratio(pass, pass+failN)
	m["tree.laplace_subs_per_miss"] = ratio(float64(b.tree.LaplaceSubs-a.tree.LaplaceSubs), tq)
	m["tree.node_updates_per_miss"] = ratio(float64(b.tree.NodeUpdates-a.tree.NodeUpdates), tq)
	m["tree.node_cache_hits"] = float64(b.tree.CacheHits - a.tree.CacheHits)
	m["tree.stale_skips"] = float64(b.tree.StaleSkips - a.tree.StaleSkips)
	m["stream.epochs_per_batch"] = ratio(float64(b.epochs-a.epochs), float64(b.batches-a.batches))
	m["stream.warm_started_leaves"] = float64(b.warmStarted - a.warmStarted)
	m["stream.shed"] = float64(b.shed - a.shed)
}

// replay drives the twin through the warm-up and then seq, returning the
// logs of the measured part and the counters around it.
func replay(w *generated, seq []int32, tw *twin, mk func(*spanBuf) target) (logs []*connLog, bufs []*spanBuf, before, after counters) {
	C := connections()
	targets := make([]target, C)
	bufs = make([]*spanBuf, C)
	for c := range targets {
		bufs[c] = &spanBuf{}
		targets[c] = mk(bufs[c])
	}
	drive(w, w.warm, targets, driveOpts{t0: time.Now(), window: noWindow, baseParts: w.baseParts})
	t0 := time.Now()
	for _, b := range bufs {
		b.t0, b.spans = t0, b.spans[:0]
	}
	before = tw.counters()
	logs = drive(w, seq, targets, driveOpts{t0: t0, window: noWindow, baseParts: w.baseParts})
	return logs, bufs, before, tw.counters()
}

// spanStats collects span durations in microseconds by name, restricted to
// requests of one op when filter is set.
type spanStats struct {
	durs  [numSpanNames][]float64
	hit   []float64 // core.answer spans that were exact hits
	miss  []float64
	calls [numSpanNames]int
	reqs  int // pipeline roots seen
}

func collect(w *generated, seq []int32, bufs []*spanBuf, op opKind) *spanStats {
	st := &spanStats{}
	for _, b := range bufs {
		for _, s := range b.spans {
			if s.req < 0 || w.reqs[seq[s.req]].op != op {
				continue
			}
			us := float64(s.end-s.start) / float64(time.Microsecond)
			st.durs[s.name] = append(st.durs[s.name], us)
			st.calls[s.name]++
			if s.name == spAnswer {
				if s.hit {
					st.hit = append(st.hit, us)
				} else {
					st.miss = append(st.miss, us)
				}
			}
			if s.name == spPipeline {
				st.reqs++
			}
		}
	}
	return st
}

func (st *spanStats) p50(name int) float64 { return quantileOf(st.durs[name], 0.5).Value }

// perRequest is how many spans of this name one request carries.
func (st *spanStats) perRequest(name int) float64 {
	return ratio(float64(st.calls[name]), float64(st.reqs))
}

// Validity limits of the layer table (the issue's acceptance criteria): the
// socket depth's tracing may cost at most maxTraceOverhead of the untraced
// round trip, and the layers must add up to the round trip within
// maxLayerSumGap.
const (
	maxTraceOverhead = 0.05
	maxLayerSumGap   = 0.10
	// traceBlock is the run of sequence positions that is traced or not as
	// one: about a millisecond, far shorter than a burst of steal, so the
	// traced and the untraced requests sample the same conditions.
	traceBlock = 16
)

// runTraced performs the traced run and reports the per-layer metrics.
func runTraced(cfg runConfig, spec *spec) (*result, error) {
	// The socket depth runs for half the window; the in-process depths
	// replay what it completed.
	socketCfg := cfg
	socketCfg.seconds = cfg.seconds / 2
	w, err := generate(spec, cfg.seed, cfg.scale, socketCfg.checkpoint(spec))
	if err != nil {
		return nil, err
	}
	res := &result{workload: spec.name, metrics: map[string]float64{}, counts: map[string]int{}}
	m := res.metrics

	// Depth 1: the real socket. Alternate blocks of the sequence record a
	// span, the others do not.
	s, err := setUp(cfg, w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	socketBufs := make([]*spanBuf, len(s.targets))
	for c := range socketBufs {
		socketBufs[c] = &spanBuf{}
	}
	traced := func(rec record) bool { return rec.seqPos/traceBlock%2 == 0 }
	p := timedPhase(w, s, socketCfg.window(), func(c int, rec record) {
		if traced(rec) {
			socketBufs[c].spans = append(socketBufs[c].spans,
				span{name: spSocket, parent: -1, req: rec.seqPos, start: rec.start, end: rec.end})
		}
	})
	if p.ctlErr != nil {
		return nil, p.ctlErr
	}
	res.measure(w, p)
	var on, off []float64
	n := 0
	for _, l := range p.logs {
		n += len(l.recs)
		for _, rec := range l.recs {
			if w.reqs[rec.req].op != spec.primary || !p.tl.covers(rec.start, rec.end) {
				continue
			}
			us := float64(rec.end-rec.start) / float64(time.Microsecond)
			if traced(rec) {
				on = append(on, us)
			} else {
				off = append(off, us)
			}
		}
	}
	seq := w.seq[:n]
	// The untraced requests are the round trip a client sees; how much
	// longer the traced ones took is what tracing costs at this depth.
	untraced := quantileOf(off, 0.5)
	m["socket.p50_us"], res.counts["socket.p50_us"] = untraced.Value, untraced.N
	m["loadgen.trace_overhead_frac"] = ratio(quantileOf(on, 0.5).Value-untraced.Value, untraced.Value)
	s.close()

	// Depth 2: the handler, in process. Its counters are the layer counts.
	htw, err := newTwin(spec)
	if err != nil {
		return nil, err
	}
	hLogs, hBufs, before, after := replay(w, seq, htw, func(b *spanBuf) target { return &handlerTarget{tw: htw, spans: b} })
	htw.srv.Close()
	answers := res.checkTwin(w, "handler", hLogs)
	layerCounts(m, before, after, answers)
	hst := collect(w, seq, hBufs, spec.primary)
	m["handler.p50_us"] = hst.p50(spHandler)
	m["net.self_us"] = m["socket.p50_us"] - m["handler.p50_us"]

	// Depth 3: the pipeline's steps one by one.
	ptw, err := newTwin(spec)
	if err != nil {
		return nil, err
	}
	defer ptw.srv.Close()
	pLogs, pBufs, _, _ := replay(w, seq, ptw, func(b *spanBuf) target { return &pipelineTarget{tw: ptw, spans: b} })
	res.checkTwin(w, "pipeline", pLogs)
	pst := collect(w, seq, pBufs, spec.primary)
	// The handler and the pipeline run on separate twins. If the steps
	// called one by one do not take what the handler takes, the table's
	// split of the handler's time is not to be trusted.
	m["loadgen.layer_sum_frac"] = ratio(m["net.self_us"]+pst.p50(spPipeline), m["socket.p50_us"])
	if f := m["loadgen.trace_overhead_frac"]; f > maxTraceOverhead {
		res.invalid("loadgen.trace_overhead_frac %.4f exceeds %.2f", f, maxTraceOverhead)
	}
	if f := m["loadgen.layer_sum_frac"]; math.Abs(f-1) > maxLayerSumGap {
		res.invalid("net.self_us + the pipeline's steps come to %.4f of socket.p50_us, more than %.2f off", f, maxLayerSumGap)
	}
	m["server.decode_us"] = pst.p50(spDecode)
	m["server.encode_us"] = pst.p50(spEncode)
	m["accountant.average_spent_us"] = pst.p50(spAverageSpent)
	m["sqlparser.parse_us"] = pst.p50(spParse)
	m["sqlparser.parses_per_request"] = pst.perRequest(spParse)
	m["core.plan_us"] = pst.p50(spPlan)
	m["cache.probe_us"] = pst.p50(spProbe)
	execName := spAnswer
	if spec.primary == opBatch {
		execName = spAnswerBatch
		m["core.answer_batch_us_per_stmt"] = pst.p50(spAnswerBatch) / batchSize
	} else {
		m["core.answer_hit_us"] = quantileOf(pst.hit, 0.5).Value
		m["core.answer_miss_us"] = quantileOf(pst.miss, 0.5).Value
	}
	// What is left of the handler's span once the steps it calls are taken
	// out: routing, the ResponseWriter, and error handling.
	m["server.self_us"] = m["handler.p50_us"] - (m["server.decode_us"] + m["server.encode_us"] +
		m["sqlparser.parse_us"]*pst.perRequest(spParse) + pst.p50(execName) +
		m["accountant.average_spent_us"]*pst.perRequest(spAverageSpent))
	if gst := collect(w, seq, pBufs, opGroupBy); gst.reqs > 0 {
		m["core.groupby_us_per_group"] = ratio(gst.p50(spGroupBy), gst.perRequest(spAnswer))
	}
	if ast := collect(w, seq, pBufs, opAppend); ast.reqs > 0 {
		m["stream.append_us"] = ast.p50(spAppend)
	}
	if spec.mode == "streaming" {
		if err := tracePersist(spec, ptw, pBufs[0], m); err != nil {
			return nil, err
		}
	}
	return res, writeTrace(cfg, spec, map[string][]*spanBuf{"socket": socketBufs, "handler": hBufs, "pipeline": pBufs})
}

// checkTwin applies the response checks to an in-process replay and
// returns how many statements it answered.
func (r *result) checkTwin(w *generated, depth string, logs []*connLog) (answers int) {
	acc := newAccuracy(w)
	for _, l := range logs {
		for _, rec := range l.recs {
			out := r.checkRecord(w, acc, rec, l.body(rec))
			if !out.ok {
				r.violate("%s depth: request %d failed with status %d", depth, rec.seqPos, rec.status)
			}
			answers += out.answers
		}
	}
	return answers
}

// tracePersist times SaveState on the pipeline twin and LoadState into a
// fresh one.
func tracePersist(spec *spec, tw *twin, spans *spanBuf, m map[string]float64) error {
	var snap bytes.Buffer
	id := spans.begin(spSave, -1, -1)
	err := tw.sess.SaveState(&snap)
	spans.finish(id)
	if err != nil {
		return err
	}
	size := snap.Len()
	fresh, err := newTwin(spec)
	if err != nil {
		return err
	}
	defer fresh.srv.Close()
	id = spans.begin(spLoad, -1, -1)
	err = fresh.sess.LoadState(&snap)
	spans.finish(id)
	if err != nil {
		return err
	}
	ms := func(s span) float64 { return float64(s.end-s.start) / float64(time.Millisecond) }
	m["persist.save_ms"] = ms(spans.spans[len(spans.spans)-2])
	m["persist.load_ms"] = ms(spans.spans[len(spans.spans)-1])
	m["persist.snapshot_bytes_per_partition"] = ratio(float64(size), float64(tw.sess.Dataset().Partitions()))
	return nil
}

// traceSample is how many requests' spans per depth the trace file keeps;
// the metrics use every span, the file is for reading.
const traceSample = 2000

// writeTrace writes the kept spans to benchmark/out/trace-<workload>.json.
func writeTrace(cfg runConfig, spec *spec, depths map[string][]*spanBuf) error {
	path := filepath.Join(outDir(cfg.root), "trace-"+spec.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	fmt.Fprintf(out, `{"workload":%q,"seed":%d,"requests_kept_per_depth":%d,"unit":"ns","spans":[`, spec.name, cfg.seed, traceSample)
	first := true
	next := 0
	for _, depth := range []string{"socket", "handler", "pipeline"} {
		for c, b := range depths[depth] {
			base := next
			self := selfTimes(b.spans)
			for i, s := range b.spans {
				next++
				if s.req >= traceSample {
					continue
				}
				parent := -1
				if s.parent >= 0 {
					parent = base + int(s.parent)
				}
				sep := ","
				if first {
					sep, first = "", false
				}
				fmt.Fprintf(out, "%s\n"+`{"id":%d,"parent":%d,"depth":%q,"conn":%d,"req":%d,"name":%q,"start":%d,"end":%d,"self":%d}`,
					sep, base+i, parent, depth, c, s.req, spanNames[s.name], int64(s.start), int64(s.end), int64(self[i]))
			}
		}
	}
	out.WriteString("\n]}\n")
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
