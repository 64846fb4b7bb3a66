// The four workloads: server flags, and the request sequence each one
// generates. A workload's population (working set, batches, appended
// partitions) and the multiset of requests sent before the checkpoint are
// the same for every --seed; the seed decides the order they arrive in. The
// server never sees the seed, only the generated requests.

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/workload"
)

type opKind uint8

const (
	opQuery opKind = iota
	opBatch
	opGroupBy
	opAppend
	numOps
)

var opPath = [numOps]string{"/query", "/query/batch", "/groupby", "/append"}

// request is one distinct HTTP request; a sequence may send it many times.
type request struct {
	op opKind
	// raw is the complete HTTP/1.1 request, marshalled at generation time
	// so nothing is encoded inside the timed loop; body is its payload.
	raw, body []byte
	// expect lists, in response order, the statements whose true fractions
	// the answers are checked against: one for /query, one per element for
	// /query/batch, one per group for /groupby.
	expect []int32
	// needParts gates stream_mix: a query is sent only once the store has
	// at least this many partitions (its window's upper edge), an append
	// only once it has exactly this many (appends apply in order).
	needParts int
}

// statement is one primitive counting query and, once computed, its true
// fraction on the benchmark's own twin dataset.
type statement struct {
	sql       string
	q         *query.Query
	truth     float64
	haveTruth bool
}

// spec is a workload's static description.
type spec struct {
	name  string
	why   string
	flags []string // turbo-server flags; -addr and -seed 42 are added
	table string
	mode  string
	// primary is the request type request_p50_ms / request_p99_ms time.
	primary opKind
	// seqLen caps the timed sequence at -scale 1. The cap keeps every
	// workload inside its privacy budget however fast the server gets: a
	// run that exhausts the sequence simply ends early.
	seqLen int
	// checkpointPerSec sizes the fixed part of a run: budget, memory and
	// CPU cost are read once checkpointPerSec × --seconds requests are
	// done. It is about 0.55 of the rate the seed sustains in quiet
	// conditions, so a quiet run passes the checkpoint well inside its
	// window and a stolen-from run overruns the window to reach it.
	checkpointPerSec int
	// build fills in the master sequence from the population generator and
	// returns the positions it may not be reordered across.
	build func(w *generated, rng *rand.Rand, scale float64) (cuts []int)
}

// generated is one seeded instance of a workload.
type generated struct {
	spec  *spec
	ds    *dataset.Dataset // the benchmark's twin of the server's dataset
	stmts []statement
	reqs  []request
	warm  []int32 // set-up phase: sent once each before timing
	seq   []int32 // timed phase, indices into reqs
	// checkpoint is the position in seq at which the gated metrics are read.
	checkpoint int
	// baseParts is the server's partition count at boot.
	baseParts int
}

const (
	covidHitFlags = "-dataset covid -mode partitioned -weeks 16 -rows 2000000 -epsg 10"
	batchSize     = 16
	groupByEvery  = 8   // one /groupby after every 8 batches
	appendEvery   = 500 // one /append per 500 stream_mix queries
	// appendLag is how many requests after an append the sequence starts
	// assuming its partition exists; the gate in the driver makes that
	// assumption safe, the lag makes the gate rarely wait.
	appendLag = 100
)

var specs = []*spec{
	{
		name:  "hit_zipf",
		why:   "zipf over a warmed hot set that fits the exact fast map: socket, JSON, parser, planner and cache probe do all the work, execution none",
		flags: strings.Fields(covidHitFlags), table: "covid", mode: "partitioned",
		primary: opQuery, seqLen: 400_000, checkpointPerSec: 8_000, build: buildHitZipf,
	},
	{
		name:  "miss_tree",
		why:   "never-repeated (predicate, window) pairs: every request walks probe-miss, flight, tree, admission and fill, bypassing any cache or statement reuse",
		flags: strings.Fields("-dataset citibike -mode partitioned -weeks 50 -rows 5000000 -epsg 10"), table: "citibike", mode: "partitioned",
		primary: opQuery, seqLen: 100_000, checkpointPerSec: 5_000, build: buildMissTree,
	},
	{
		name:  "dash_batch",
		why:   "cold 16-statement batches plus /groupby over a working set 2.4x the fast map: the same layers through AnswerBatch and the groupby loop, probes spilling to the store",
		flags: strings.Fields(covidHitFlags), table: "covid", mode: "partitioned",
		primary: opBatch, seqLen: 45_000, checkpointPerSec: 1_600, build: buildDashBatch,
	},
	{
		name:  "stream_mix",
		why:   "latest-window reads beside /append writes in streaming mode: each arrival shifts the windows, so hit rate sawtooths while ingestion and warm-start run",
		flags: strings.Fields("-dataset covid -mode streaming -weeks 8 -rows 1000000 -epsg 10"), table: "covid", mode: "streaming",
		primary: opQuery, seqLen: 240_000, checkpointPerSec: 6_000, build: buildStreamMix,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// flagValue returns the value following flag in the spec's server flags.
func (s *spec) flagValue(flag string) string {
	for i, f := range s.flags {
		if f == flag && i+1 < len(s.flags) {
			return s.flags[i+1]
		}
	}
	return ""
}

func (s *spec) flagInt(flag string) int {
	v, err := strconv.Atoi(s.flagValue(flag))
	if err != nil {
		panic(fmt.Sprintf("workload %s: flag %s is not an integer", s.name, flag))
	}
	return v
}

// buildDataset builds the dataset turbo-server builds for the same flags
// and -seed 42 (cmd/turbo-server/main.go).
func (s *spec) buildDataset() (*dataset.Dataset, error) {
	rows, weeks := s.flagInt("-rows"), s.flagInt("-weeks")
	if s.table == "citibike" {
		return workload.BuildCitiBike(workload.CitiBikeConfig{Rows: rows, Weeks: weeks, Small: true, Seed: 42})
	}
	return workload.BuildCovid(workload.CovidConfig{Rows: rows, Weeks: weeks, Seed: 42})
}

// populationSeed generates every workload's master sequence. Budget spent
// and memory held depend on which statements a run asks, so that choice is
// not left to --seed: the driver changes the seed on every run, and what is
// read at the checkpoint would then differ by working set before it
// differed by anything the server does.
const populationSeed = 2023

// generate builds the seeded instance of a workload: the master sequence
// from populationSeed, then reordered by seed inside the stretches where
// order is free. The checkpoint is always a cut, so the same requests have
// been sent by then whatever the seed. Each workload salts the generators
// with its own index so one seed does not correlate them.
func generate(s *spec, seed uint64, scale float64, checkpoint int) (*generated, error) {
	ds, err := s.buildDataset()
	if err != nil {
		return nil, err
	}
	salt := uint64(0)
	for i, o := range specs {
		if o == s {
			salt = uint64(i + 1)
		}
	}
	w := &generated{spec: s, ds: ds, baseParts: ds.Partitions()}
	cuts := s.build(w, rand.New(rand.NewPCG(populationSeed, salt)), scale)
	if checkpoint > len(w.seq) {
		checkpoint = len(w.seq)
	}
	w.checkpoint = checkpoint
	order := rand.New(rand.NewPCG(seed, salt))
	shuffle := func(part []int32) {
		order.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	shuffle(w.warm)
	cuts = append(cuts, checkpoint, len(w.seq))
	sort.Ints(cuts)
	from := 0
	for _, to := range cuts {
		shuffle(w.seq[from:to])
		from = to
	}
	return w, nil
}

// scaled scales a count, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		return floor
	}
	return v
}

// zipf draws ranks in [0,n) with probability ∝ 1/(rank+1)^s.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(n int, s float64, rng *rand.Rand) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf, rng: rng}
}

func (z *zipf) draw() int {
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// sqlFor renders a query as the SQL the server parses: one conjunct per
// constrained attribute plus the time window.
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
	if s, e, ok := q.Window(); ok {
		b.WriteString(sep)
		b.WriteString("time BETWEEN " + strconv.Itoa(s) + " AND " + strconv.Itoa(e))
	}
	return b.String()
}

// addStatement registers a windowed primitive query and returns its id.
func (w *generated) addStatement(q *query.Query) int32 {
	w.stmts = append(w.stmts, statement{sql: sqlFor(q, w.spec.table), q: q})
	return int32(len(w.stmts) - 1)
}

// addRequest marshals one request and returns its id.
func (w *generated) addRequest(op opKind, body []byte, expect []int32, needParts int) int32 {
	head := "POST " + opPath[op] + " HTTP/1.1\r\nHost: turbo\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	raw := append([]byte(head), body...)
	w.reqs = append(w.reqs, request{op: op, raw: raw, body: raw[len(head):], expect: expect, needParts: needParts})
	return int32(len(w.reqs) - 1)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// addQuery registers statement q and its singleton /query request.
func (w *generated) addQuery(q *query.Query, needParts int) int32 {
	id := w.addStatement(q)
	return w.addRequest(opQuery, mustJSON(map[string]string{"sql": w.stmts[id].sql}), []int32{id}, needParts)
}

// allWindows enumerates every contiguous window of n partitions.
func allWindows(n int) [][2]int {
	var out [][2]int
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// distinctPairs draws n distinct (predicate, window) pairs and returns
// them as windowed queries, in draw order.
func distinctPairs(pool []*query.Query, parts, n int, rng *rand.Rand) []*query.Query {
	wins := allWindows(parts)
	if max := len(pool) * len(wins); n > max {
		n = max
	}
	seen := make(map[[2]int]struct{}, n)
	out := make([]*query.Query, 0, n)
	for len(out) < n {
		k := [2]int{rng.IntN(len(pool)), rng.IntN(len(wins))}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, pool[k[0]].WithWindow(wins[k[1]][0], wins[k[1]][1]))
	}
	return out
}

// dedupPool drops predicates that repeat an earlier one, so that distinct
// pool indices always mean distinct cache keys.
func dedupPool(pool []*query.Query) []*query.Query {
	seen := make(map[string]struct{}, len(pool))
	out := pool[:0:0]
	for _, q := range pool {
		if _, dup := seen[q.Key()]; dup {
			continue
		}
		seen[q.Key()] = struct{}{}
		out = append(out, q)
	}
	return out
}

func buildHitZipf(w *generated, rng *rand.Rand, scale float64) []int {
	pool := workload.CovidPool(w.ds.Domain())
	hot := distinctPairs(pool, w.baseParts, scaled(2000, scale, 50), rng)
	reqs := make([]int32, len(hot))
	for i, q := range hot {
		reqs[i] = w.addQuery(q, 0)
	}
	// The hot set is warmed in batches: set-up time then follows the
	// server's work on 2,000 misses, not 2,000 round trips' wake-ups.
	for i := 0; i < len(hot); i += batchSize {
		body := []byte(`{"queries":[`)
		var expect []int32
		for j := i; j < len(hot) && j < i+batchSize; j++ {
			id := w.reqs[reqs[j]].expect[0]
			if j > i {
				body = append(body, ',')
			}
			body = append(body, mustJSON(w.stmts[id].sql)...)
			expect = append(expect, id)
		}
		body = append(body, "]}"...)
		w.warm = append(w.warm, w.addRequest(opBatch, body, expect, 0))
	}
	z := newZipf(len(hot), 1.0, rng)
	w.seq = make([]int32, scaled(w.spec.seqLen, scale, 200))
	for i := range w.seq {
		w.seq[i] = reqs[z.draw()]
	}
	return nil
}

func buildMissTree(w *generated, rng *rand.Rand, scale float64) []int {
	pool := dedupPool(workload.CitiBikePool(w.ds.Domain()))
	for _, q := range distinctPairs(pool, w.baseParts, scaled(w.spec.seqLen, scale, 200), rng) {
		w.seq = append(w.seq, w.addQuery(q, 0))
	}
	return nil
}

// groupByStatement draws one GROUP BY over one or two attributes, with an
// optional filter on a third and a window, and registers its groups in the
// server's row-major response order.
func (w *generated) groupByStatement(rng *rand.Rand) int32 {
	dom := w.ds.Domain()
	attrs := rng.Perm(dom.NumAttrs())
	by := attrs[:1+rng.IntN(2)]
	sort.Ints(by) // declaration order, like an analyst would write it
	filter := map[int][]int{}
	where := ""
	if rng.IntN(2) == 0 {
		a := attrs[2]
		v := rng.IntN(dom.Card(a))
		filter[a] = []int{v}
		where = dom.Attr(a).Name + " = " + strconv.Itoa(v) + " AND "
	}
	win := allWindows(w.baseParts)[rng.IntN(w.baseParts*(w.baseParts+1)/2)]
	names := make([]string, len(by))
	for i, a := range by {
		names[i] = dom.Attr(a).Name
	}
	sql := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %stime BETWEEN %d AND %d GROUP BY %s",
		w.spec.table, where, win[0], win[1], strings.Join(names, ", "))

	var expect []int32
	vals := make([]int, len(by))
	var rec func(i int)
	rec = func(i int) {
		if i == len(by) {
			allowed := map[int][]int{}
			for a, v := range filter {
				allowed[a] = v
			}
			for j, a := range by {
				allowed[a] = []int{vals[j]}
			}
			expect = append(expect, w.addStatement(query.MustNew(dom, allowed).WithWindow(win[0], win[1])))
			return
		}
		for v := 0; v < dom.Card(by[i]); v++ {
			vals[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return w.addRequest(opGroupBy, mustJSON(map[string]string{"sql": sql}), expect, 0)
}

func buildDashBatch(w *generated, rng *rand.Rand, scale float64) []int {
	pool := workload.CovidPool(w.ds.Domain())
	set := distinctPairs(pool, w.baseParts, scaled(10_000, scale, 100), rng)
	ids := make([]int32, len(set))
	quoted := make([][]byte, len(set)) // each statement's SQL as a JSON string
	for i, q := range set {
		ids[i] = w.addStatement(q)
		quoted[i] = mustJSON(w.stmts[ids[i]].sql)
	}
	groupBys := make([]int32, scaled(200, scale, 10))
	for i := range groupBys {
		groupBys[i] = w.groupByStatement(rng)
	}
	zs, zg := newZipf(len(set), 1.0, rng), newZipf(len(groupBys), 1.0, rng)
	n := scaled(w.spec.seqLen, scale, 50)
	for batches := 0; len(w.seq) < n; {
		body := []byte(`{"queries":[`)
		expect := make([]int32, batchSize)
		for j := range expect {
			k := zs.draw()
			expect[j] = ids[k]
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, quoted[k]...)
		}
		body = append(body, "]}"...)
		w.seq = append(w.seq, w.addRequest(opBatch, body, expect, 0))
		if batches++; batches%groupByEvery == 0 {
			w.seq = append(w.seq, groupBys[zg.draw()])
		}
	}
	return nil
}

// appendCounts draws one arriving partition: 128 per-bin row counts that
// sum to roughly the server's rows-per-week.
func appendCounts(dom *domain.Domain, rowsPerPart int, rng *rand.Rand) []int {
	counts := make([]int, dom.Size())
	for i := range counts {
		counts[i] = rng.IntN(2*rowsPerPart/dom.Size() + 1)
	}
	return counts
}

// buildStreamMix cuts the sequence around every append and wherever the
// partition count its queries assume changes: between two cuts every
// window is valid in any order.
func buildStreamMix(w *generated, rng *rand.Rand, scale float64) (cuts []int) {
	dom := w.ds.Domain()
	pool := workload.CovidPool(dom)
	preds := make([]*query.Query, scaled(200, scale, 20))
	for i, k := range rng.Perm(len(pool))[:len(preds)] {
		preds[i] = pool[k]
	}
	z := newZipf(len(preds), 1.0, rng)
	rowsPerPart := w.spec.flagInt("-rows") / w.baseParts
	type key struct{ pred, a, b int }
	byKey := map[key]int32{}
	n := scaled(w.spec.seqLen, scale, 600)
	appended := 0    // appends placed so far
	var lagged []int // positions of appends not yet assumed applied
	visible := w.baseParts
	for i := 0; i < n; i++ {
		for len(lagged) > 0 && lagged[0] <= i-appendLag {
			lagged = lagged[1:]
			visible++
			cuts = append(cuts, i)
		}
		if i%appendEvery == appendEvery-1 {
			counts := appendCounts(dom, rowsPerPart, rng)
			p := w.ds.AppendPartition()
			if err := w.ds.BulkLoad(p, counts); err != nil {
				panic(err) // counts are non-negative and domain-sized by construction
			}
			type part struct {
				Counts []int `json:"counts"`
			}
			body := mustJSON(map[string][]part{"partitions": {{Counts: counts}}})
			w.seq = append(w.seq, w.addRequest(opAppend, body, nil, w.baseParts+appended))
			appended++
			lagged = append(lagged, i)
			cuts = append(cuts, i, i+1)
			continue
		}
		span := []int{1, 2, 4, 8, visible}[rng.IntN(5)]
		if span > visible {
			span = visible
		}
		k := key{z.draw(), visible - span, visible - 1}
		id, ok := byKey[k]
		if !ok {
			id = w.addQuery(preds[k.pred].WithWindow(k.a, k.b), visible)
			byKey[k] = id
		}
		w.seq = append(w.seq, id)
	}
	return cuts
}

// truthOf returns statement id's true fraction on the twin dataset.
func (w *generated) truthOf(id int32) (float64, error) {
	st := &w.stmts[id]
	if !st.haveTruth {
		a, b, _ := st.q.Window()
		v, err := w.ds.TrueFraction(st.q, a, b)
		if err != nil {
			return 0, err
		}
		st.truth, st.haveTruth = v, true
	}
	return st.truth, nil
}
