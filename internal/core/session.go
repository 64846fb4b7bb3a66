// Package core is turbo-lib: the Turbo caching layer itself (Fig. 1 of the
// paper). A Session wraps a dataset with Turbo's caching objects — an
// exact-match cache in front of either a single PMW-Bypass (non-partitioned
// databases) or a tree-structured PMW-Bypass (partitioned and streaming
// databases) — and answers linear queries (α, β)-accurately under a global
// (ε_G, 0)-DP guarantee enforced by a privacy accountant.
//
// # The query pipeline
//
// Answer is organized as a layered pipeline rather than one lock scope:
//
//  1. plan — the Planner resolves the query to a partition window and
//     view size. Lock-free.
//  2. cache — the window-level exact cache is probed. The cache is
//     concurrency-safe, so exact hits (the cheapest and, under skewed
//     workloads, most common path, Fig. 11d) never serialize. Lookup and
//     AnswerPlan split Answer here, for a caller that holds a statement's
//     cache key before its query: the HTTP handlers build a query only
//     on a miss.
//  3. dedup — cache misses enter the single-flight group keyed by the
//     exact-cache key, predicate and window (flight.go): concurrent
//     identical first-timers execute and pay once, with duplicates
//     observing the leader's released answer.
//  4. execute — the flight leader runs the PMW machinery: the single
//     PMW-Bypass behind the session's one executor lock (non-partitioned),
//     or the tree (partitioned), which holds its one lock only to claim
//     and to commit node state, so scans, payments and DP releases of
//     concurrent queries run outside it.
//  5. account — budget is deducted through the one thread-safe block
//     accountant, which realizes parallel composition by charging each
//     partition separately and whose atomic range payment is the
//     Appendix B filter for the mechanisms composed concurrently, in
//     every mode.
//
// For streaming databases, partitions arrive through AppendPartitions,
// one batch at a time on its caller's goroutine: the accountant grows
// strictly before the dataset, the counts load, and in streaming mode the
// new tree leaves are warm-started, all before the call returns. The
// internal/stream Ingestor is its front for POST /append. A session marks
// its dataset served (dataset.Dataset.Serve): the rows of a partition a
// query can name never change, so an exact-cache entry never goes stale.
//
// Sessions are safe for concurrent use by many request goroutines.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/accountant"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/noise"
	"repro/internal/persist"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tree"
)

// Mode selects the use case (§3.2).
type Mode int

const (
	// NonPartitioned treats the store as one static database: a single
	// Exact-Cache and PMW-Bypass (use case 1).
	NonPartitioned Mode = iota
	// Partitioned uses the tree-structured PMW-Bypass over a static
	// partitioned database (use case 2).
	Partitioned
	// Streaming is Partitioned plus histogram warm-start for partitions
	// arriving over time (use case 3).
	Streaming
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NonPartitioned:
		return "non-partitioned"
	case Partitioned:
		return "partitioned"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Source labels how an answer was produced, for the runtime evaluation
// (Fig. 11d) and diagnostics.
type Source string

const (
	// SourceExactHit is a free exact-cache hit.
	SourceExactHit Source = "exact-hit"
	// SourceR1 is a free histogram answer (SV passed).
	SourceR1 Source = "pmw-r1"
	// SourceR2 is a paid PMW miss (SV failed).
	SourceR2 Source = "pmw-r2"
	// SourceR3 is a paid bypass execution.
	SourceR3 Source = "pmw-r3"
	// SourceTree is a tree-combined answer (mixed branches).
	SourceTree Source = "tree"
)

// Sources lists every answer source, for consumers that pre-allocate
// per-source counters (e.g. the HTTP server's atomic counters).
var Sources = []Source{SourceExactHit, SourceR1, SourceR2, SourceR3, SourceTree}

// Config parameterizes a Turbo session.
type Config struct {
	// Mode selects the use case; default NonPartitioned.
	Mode Mode
	// Alpha, Beta are the per-query accuracy target (G2).
	Alpha, Beta float64
	// EpsilonGlobal is ε_G, enforced per partition under parallel
	// composition (G1).
	EpsilonGlobal float64
	// Tau is the external-update margin; default 0.05.
	Tau float64
	// LR builds learning-rate schedules; nil defaults to constant α/8.
	LR func() pmw.Schedule
	// Heuristic builds readiness heuristics; nil defaults to Turbo's
	// adaptive per-bin (C0=100, S0=5).
	Heuristic heuristic.Factory
	// Structure selects the histogram arrangement in partitioned modes.
	Structure tree.Structure
	// NodeExactCache is ignored: the tree keeps no node cache. It is a
	// compile shim for benchmark/, which sets it; a benchmark/-only change
	// removes it.
	NodeExactCache bool
	// Seed makes the session's randomness reproducible.
	Seed uint64
	// Gaussian switches the session to Rényi-DP accounting (§A.6, App.
	// B): the block accountant composes every mechanism's Rényi curve
	// per partition over a grid of orders (Thm B.2's filter) and the
	// session enforces (EpsilonGlobal, DeltaGlobal)-DP. In
	// non-partitioned mode the DP executor also switches to the Gaussian
	// mechanism; in partitioned/streaming modes the tree's per-node
	// Laplace mechanisms stay (their joint calibration is
	// Laplace-specific) and only the composition is Rényi.
	Gaussian bool
	// DeltaGlobal is δ_G for Gaussian mode; ignored otherwise.
	DeltaGlobal float64
	// Shards is ignored: the tree holds one lock and the exact cache one
	// store. It is a compile shim for benchmark/, which sets it; a
	// benchmark/-only change removes it.
	Shards int
	// Backend is the store the session's exact cache owns (the paper's
	// replaceable Redis tier). A backend serves one cache: the session
	// clears it, and it must not be handed to another session. nil
	// defaults to the unbounded in-memory store (store.NewMem with no
	// cap); the same store built with a cap is the memory-bounded
	// segmented LRU. Eviction is always safe — an evicted release
	// re-executes and re-pays through the single-flight path.
	Backend store.Backend
}

func (c *Config) fill() error {
	// Each check is written so that NaN fails it: every comparison with
	// NaN is false.
	if !(c.Alpha > 0 && c.Alpha < 1) || !(c.Beta > 0 && c.Beta < 1) {
		return fmt.Errorf("core: bad accuracy target (%g,%g)", c.Alpha, c.Beta)
	}
	if !(c.EpsilonGlobal > 0 && c.EpsilonGlobal < math.Inf(1)) {
		return fmt.Errorf("core: bad global budget %g: want a finite ε_G > 0", c.EpsilonGlobal)
	}
	if c.Tau == 0 {
		c.Tau = 0.05
	}
	if !(c.Tau > 0 && c.Tau <= 0.5) {
		return fmt.Errorf("core: tau %g out of (0,1/2]", c.Tau)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Answer is one released query result.
type Answer struct {
	Value  float64
	Source Source
	// Paid is the pure-DP budget consumed (summed over partitions for
	// tree answers).
	Paid float64
	// Start, End, Rows record the partition window the answer covers and
	// its public row count at planning time. Callers scaling the fraction
	// into a count must use these rather than re-reading the dataset:
	// under streaming, partitions arriving after the plan would otherwise
	// inflate the count with rows the released fraction never covered.
	Start, End int
	Rows       int
}

// Session is a Turbo-fronted DP database session, safe for concurrent use:
// the planner and exact-cache stages are lock-free, execution holds the
// PMW's or the tree's lock only around state updates, and accounting goes
// through the thread-safe accountant.
type Session struct {
	cfg     Config
	ds      *dataset.Dataset
	exec    *dataset.Executor
	block   *accountant.Block
	store   store.Backend
	exact   *cache.Exact
	rng     *noise.Rng
	planner *Planner

	// Non-partitioned machinery: one PMW-Bypass behind one lock.
	singleMu sync.Mutex
	single   *pmw.PMW
	// Partitioned machinery: the tree locks internally.
	tree *tree.Tree

	// flights deduplicates concurrent identical cache misses so N
	// first-timers on the same key execute and pay once.
	flights flightGroup
	// registry holds the session's durable-state sections (persist.go),
	// every one registered at construction.
	registry *persist.Registry
	// appendMu is the session's one state lock. It serializes batches of
	// arrivals (AppendPartitions), so each batch's accountant growth and
	// dataset growth assign corresponding indices, snapshot captures
	// (SaveState), restores (LoadState) and the closing of the restore
	// window. loads holds a batch's counts for the dataset, reused under
	// it. warmed counts the leaves arrivals warm-started.
	appendMu sync.Mutex
	loads    [][]int
	warmed   atomic.Int64
	// serving is the restore window's latch: set, under appendMu, by the
	// first Lookup, AnswerPlan or AppendPartitions and by a successful
	// LoadState, after which LoadState refuses (ErrAlreadyServing).
	serving atomic.Bool

	queries atomic.Int64
	deduped atomic.Int64
	bySrc   [numSources]atomic.Int64
}

// numSources sizes the per-source counter array; the sourceIndex
// initializer panics at startup if it falls out of step with Sources.
const numSources = 5

// sourceIndex maps each Source to its slot in the session's atomic
// per-source counters, derived from Sources so the two cannot drift.
var sourceIndex = func() map[Source]int {
	if len(Sources) != numSources {
		panic("core: numSources out of step with Sources")
	}
	m := make(map[Source]int, len(Sources))
	for i, src := range Sources {
		m[src] = i
	}
	return m
}()

// NewSession creates a Turbo session over ds and marks ds served.
func NewSession(cfg Config, ds *dataset.Dataset) (*Session, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Partitions() == 0 {
		return nil, errors.New("core: dataset must have at least one partition")
	}
	rng := noise.NewRng(cfg.Seed)
	be := cfg.Backend
	if be == nil {
		be = store.NewMem(store.MemConfig{})
	}
	exact, err := cache.NewExact(be)
	if err != nil {
		return nil, err
	}
	// The session's one set of privacy books: a pure-ε block, or under
	// Gaussian/Rényi accounting the same block over a grid of finite
	// orders enforcing (ε_G, δ_G)-DP. Every mechanism of every mode pays
	// it, and every budget report reads it.
	var block *accountant.Block
	if cfg.Gaussian {
		if !(cfg.DeltaGlobal > 0 && cfg.DeltaGlobal < 1) {
			return nil, fmt.Errorf("core: Gaussian mode needs δ_G in (0,1), got %g", cfg.DeltaGlobal)
		}
		block = accountant.NewBlockForDP(accountant.DefaultOrders, cfg.EpsilonGlobal, cfg.DeltaGlobal, ds.Partitions())
	} else {
		block = accountant.NewBlock(cfg.EpsilonGlobal, ds.Partitions())
	}
	s := &Session{
		cfg:     cfg,
		ds:      ds,
		exec:    dataset.NewExecutor(ds, rng.Fork()),
		block:   block,
		store:   be,
		exact:   exact,
		rng:     rng,
		planner: NewPlanner(ds),
	}
	switch cfg.Mode {
	case NonPartitioned:
		n := ds.NRowsAll()
		if n == 0 {
			return nil, errors.New("core: empty dataset")
		}
		var lr pmw.Schedule
		if cfg.LR != nil {
			lr = cfg.LR()
		}
		var h heuristic.Heuristic
		if cfg.Heuristic != nil {
			h = cfg.Heuristic()
		}
		full := pmw.RangeExecutor{Exec: s.exec, Start: 0, End: ds.Partitions() - 1}
		eps := noise.EpsilonForAccuracy(cfg.Alpha, cfg.Beta, n)
		// The single PMW-Bypass pays the whole partition range: its
		// sparse vector and direct releases compose concurrently with
		// adaptively chosen budgets, which is the setting Thm B.1/B.2
		// prove the block's stopping rule sound for.
		payer := pmw.LaplacePayer(accountant.Window{Block: s.block, Start: 0, End: ds.Partitions() - 1}, eps)
		if cfg.Gaussian {
			sigma := noise.GaussianSigmaForBypass(cfg.Alpha, n, eps, cfg.Tau)
			s.exec.WithGaussian(sigma)
			payer.Release = accountant.Gaussian(sigma, 1/float64(n))
		}
		p, err := pmw.New(pmw.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, N: n,
			DomainSize: ds.Domain().Size(),
			Tau:        cfg.Tau, LR: lr, Heuristic: h,
		}, full, payer, rng.Fork())
		if err != nil {
			return nil, err
		}
		s.single = p
	case Partitioned, Streaming:
		t, err := tree.New(tree.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, Tau: cfg.Tau,
			LR: cfg.LR, Heuristic: cfg.Heuristic,
			Structure: cfg.Structure,
			WarmStart: cfg.Mode == Streaming,
		}, s.exec, s.block, rng.Fork())
		if err != nil {
			return nil, err
		}
		s.tree = t
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	s.buildRegistry()
	ds.Serve()
	return s, nil
}

// Dataset returns the underlying store.
func (s *Session) Dataset() *dataset.Dataset { return s.ds }

// Planner returns the session's planning stage.
func (s *Session) Planner() *Planner { return s.planner }

// Arrival is one newly-arrived stream partition: dense per-bin row counts
// over the session's domain. A nil Counts registers an empty partition.
type Arrival struct {
	Counts []int
}

// AppendPartitions applies one batch of len(arrivals) newly-arrived stream
// partitions and returns the index of the first. It closes the restore
// window. Under appendMu, which SaveState holds for its whole capture, the
// dataset (Dataset.Append)
//
//  1. checks the arrivals against the domain and their rows against the
//     room it has left below dataset.MaxRows;
//  2. has the session grow the accountants and, in Streaming mode,
//     warm-start the new tree leaves left to right, each copying its
//     predecessor's trained histogram and heuristic state (§4.5) at
//     ingestion time rather than on the first query;
//  3. only then publishes the loaded partitions.
//
// A query therefore names a new partition only once its budget exists,
// its rows are loaded and its leaf is warm. A refused arrival changes
// neither the books, the tree nor the dataset, and consumes no partition
// index.
//
// Non-partitioned sessions refuse the append: their single PMW-Bypass and
// its payer's window are fixed over the initial partition range, so a
// grown dataset would let queries name partitions whose releases no
// accountant covers.
func (s *Session) AppendPartitions(arrivals ...Arrival) (int, error) {
	k := len(arrivals)
	if k == 0 {
		return 0, errors.New("core: empty arrival")
	}
	if s.tree == nil {
		return 0, errors.New("core: streaming arrivals need a partitioned session " +
			"(the single PMW's accountant window cannot grow)")
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.serving.Store(true)
	for _, a := range arrivals {
		s.loads = append(s.loads, a.Counts)
	}
	first, err := s.ds.Append(s.grow, s.loads...)
	clear(s.loads) // keep no caller's counts alive
	s.loads = s.loads[:0]
	return first, err
}

// grow readies k checked arrivals from partition first for publication:
// the books grow to cover them and, in Streaming mode, their leaves are
// warm-started. The caller holds appendMu.
func (s *Session) grow(first, k int) {
	s.block.AddPartitions(k)
	if s.cfg.Mode != Streaming {
		return
	}
	for p := first; p < first+k; p++ {
		s.tree.EagerWarmStart(p)
	}
	s.warmed.Add(int64(k))
}

// WarmStarted returns the number of tree leaves arrivals warm-started: in
// Streaming mode, every partition AppendPartitions appended (no query can
// reach a partition's leaf first), and otherwise 0.
func (s *Session) WarmStarted() int { return int(s.warmed.Load()) }

// Answer runs one linear query through the Turbo pipeline of Fig. 1:
// plan, exact cache, then PMW-Bypass (single or tree). It is Lookup by
// the query's key and, on a miss, AnswerPlan: the stages turbo-server
// runs for a statement. It returns accountant.ErrBudgetExhausted
// (wrapped) once the global guarantee binds.
func (s *Session) Answer(q *query.Query) (Answer, error) {
	if err := s.planner.check(q); err != nil {
		return Answer{}, err
	}
	ans, pl, hit, err := s.Lookup(q.KeyWithWindow())
	if err != nil || hit {
		return ans, err
	}
	pl.Query = q
	return s.AnswerPlan(pl)
}

// Lookup is Answer's plan and exact-cache stages for a statement whose
// query is not built yet: key is the key its query would have
// (query.Builder.AppendKey), and its window header is what is planned.
// key is only read during the call, so it may view a buffer the caller
// reuses. A hit is the whole answer; on a miss, the plan, given the
// built query, goes to AnswerPlan. A tree session probes a windowless
// statement under the key of its planned window (planned), rendered
// into a recycled buffer, so no exact hit allocates. It closes the
// restore window.
func (s *Session) Lookup(key string) (ans Answer, pl Plan, hit bool, err error) {
	s.serve()
	start, end, windowed, err := query.KeyWindow(key)
	if err == nil {
		pl, err = s.planner.PlanWindow(start, end, windowed)
	}
	if err != nil {
		return Answer{}, Plan{}, false, err
	}
	if windowed || s.tree == nil {
		ans, hit = s.probe(pl, key)
		return ans, pl, hit, nil
	}
	buf := windowKeys.Get().(*[]byte)
	*buf = query.AppendWindowedKey((*buf)[:0], key, pl.Start, pl.End)
	ans, hit = s.probe(pl, unsafe.String(unsafe.SliceData(*buf), len(*buf)))
	windowKeys.Put(buf)
	return ans, pl, hit, nil
}

// serve closes the restore window before a request's first session
// call. While the window is open it takes appendMu, so a request that
// arrives during a restore waits for it; once closed, it is one atomic
// load.
func (s *Session) serve() {
	if s.serving.Load() {
		return
	}
	s.appendMu.Lock()
	s.serving.Store(true)
	s.appendMu.Unlock()
}

// Serving reports whether the restore window has closed: the session has
// begun serving, or a restore succeeded, so LoadState refuses.
func (s *Session) Serving() bool { return s.serving.Load() }

// windowKeys recycles the buffers Lookup renders a windowless statement's
// windowed key into. A key handed to the store's interface escapes, so a
// buffer on Lookup's frame would be one allocation per probe.
var windowKeys = sync.Pool{New: func() any { return new([]byte) }}

// AnswerPlan answers a statement whose key Lookup missed: pl is Lookup's
// plan, with the statement's built query in Query. It runs Answer's
// flight, execution and fill stages, with no second probe in front of the
// flight (its leader re-checks the cache, as Answer's does). Nothing keeps
// the query or its key past the call, so it may be one the caller
// rebuilds for its next statement (query.Builder.BuildInto). It closes
// the restore window.
func (s *Session) AnswerPlan(pl Plan) (Answer, error) {
	s.serve()
	pl, err := s.planned(pl)
	if err != nil {
		return Answer{}, err
	}
	return s.execute(pl)
}

// planned refuses a plan whose query is not the one it was planned for:
// none, one over another domain, or one of another window. It returns the
// plan to run: in a tree session, a windowless query is given its plan's
// window, the [0, P−1] of the P partitions planned. The whole store gains
// a partition with every arrival while a window's rows never change, so
// the release is cached, and its flight shared, under the key of the
// window it was answered on (Lookup probes that key).
func (s *Session) planned(pl Plan) (Plan, error) {
	q := pl.Query
	if err := s.planner.check(q); err != nil {
		return pl, err
	}
	start, end, ok := q.Window()
	switch {
	case ok && (start != pl.Start || end != pl.End):
		return pl, fmt.Errorf("core: query window [%d,%d] is not its plan's [%d,%d]", start, end, pl.Start, pl.End)
	case !ok && s.tree != nil:
		pl.Query = q.WithWindow(pl.Start, pl.End)
	}
	return pl, nil
}

// probe is the exact-cache stage of Answer and Lookup: the entry under
// key, if there is one.
func (s *Session) probe(pl Plan, key string) (Answer, bool) {
	v, ok := s.exact.Lookup(key)
	if !ok {
		return Answer{}, false
	}
	s.record(SourceExactHit)
	return Answer{Value: v, Source: SourceExactHit,
		Start: pl.Start, End: pl.End, Rows: pl.Rows}, true
}

// execute runs a plan the exact cache missed through the single-flight
// group under its identity and, as the flight leader, through
// executePlan and the fill, then counts its answer: a deduplication when
// the flight was shared with a concurrent caller (no execution, no
// payment).
func (s *Session) execute(pl Plan) (Answer, error) {
	ans, shared, err := s.flights.do(flightOf(pl), func() (Answer, error) {
		// Double-check the exact cache as the leader: an identical query
		// may have completed (and cached) between this goroutine's cache
		// probe and its flight. Concurrent duplicates are handled by the
		// flight group itself.
		if v, ok := s.exact.Lookup(pl.Query.KeyWithWindow()); ok {
			return Answer{Value: v, Source: SourceExactHit}, nil
		}
		ans, err := s.executePlan(pl)
		if err != nil {
			return Answer{}, err
		}
		// Cache the paid answer inside the flight, before the key is
		// released: a duplicate that misses the in-flight map must find
		// the cache filled, or it would execute — and pay — again. A fill
		// the store refuses (counted in its SetErrors) is an eviction of
		// the new entry: the books are charged, so the answer goes out to
		// the leader and every joiner, and a later ask re-executes.
		_ = s.exact.Put(pl.Query, ans.Value)
		return ans, nil
	})
	if err != nil {
		return Answer{}, err
	}
	ans.Start, ans.End, ans.Rows = pl.Start, pl.End, pl.Rows
	if shared {
		s.deduped.Add(1)
	}
	s.record(ans.Source)
	return ans, nil
}

// executePlan runs a plan on the session's PMW machinery: the single
// PMW-Bypass behind its lock, or the tree.
func (s *Session) executePlan(pl Plan) (Answer, error) {
	if s.single != nil {
		s.singleMu.Lock()
		defer s.singleMu.Unlock()
		res, err := s.single.Run(pl.Query)
		if err != nil {
			return Answer{}, err
		}
		ans := Answer{Value: res.Value, Paid: res.Paid}
		switch res.Path {
		case pmw.PathR1:
			ans.Source = SourceR1
		case pmw.PathR2:
			ans.Source = SourceR2
		default:
			ans.Source = SourceR3
		}
		return ans, nil
	}
	res, err := s.tree.Run(pl.Query)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Value: res.Value, Source: SourceTree, Paid: res.Paid}, nil
}

// record counts one answer from src.
func (s *Session) record(src Source) {
	s.queries.Add(1)
	s.bySrc[sourceIndex[src]].Add(1)
}

// Queries returns the number of answers this session released: one per
// exact hit and one per executed or shared flight. Like every counter of
// the session, it starts at 0 in each process; a restore brings back the
// books and caches, not the counts.
func (s *Session) Queries() int { return int(s.queries.Load()) }

// Deduped returns the number of answers served by sharing a concurrent
// identical flight (single-flight deduplication) rather than executing.
func (s *Session) Deduped() int { return int(s.deduped.Load()) }

// SourceCounts returns a copy of the per-source answer counts.
func (s *Session) SourceCounts() map[Source]int {
	out := make(map[Source]int, len(sourceIndex))
	for src, i := range sourceIndex {
		if v := s.bySrc[i].Load(); v > 0 {
			out[src] = int(v)
		}
	}
	return out
}

// AverageSpent returns the average per-partition consumed budget — the
// paper's headline metric. In Gaussian mode it is the per-partition
// Rényi consumption converted to (ε, δ_G)-DP.
func (s *Session) AverageSpent() float64 { return s.block.AverageSpent() }

// LiveSparseVectors returns the number of sparse vectors currently
// live — the interactive mechanisms being composed concurrently.
func (s *Session) LiveSparseVectors() int {
	if s.tree != nil {
		return s.tree.LiveSVs()
	}
	s.singleMu.Lock()
	defer s.singleMu.Unlock()
	if s.single.SVLive() {
		return 1
	}
	return 0
}

// Accountant exposes the block accountant for harness metrics.
func (s *Session) Accountant() *accountant.Block { return s.block }

// Tree exposes the tree in partitioned modes (nil otherwise).
func (s *Session) Tree() *tree.Tree { return s.tree }

// ExactCache exposes the window-level exact cache.
func (s *Session) ExactCache() *cache.Exact { return s.exact }

// StoreStats returns the storage backend's hit/miss/eviction/bytes
// counters, for /schema's cache section and the evict experiment.
func (s *Session) StoreStats() store.Stats { return s.store.Stats() }

// MemoryBytes reports resident caching-state size: histograms plus the KV
// store (§6.5).
func (s *Session) MemoryBytes() int {
	total := s.store.MemoryBytes()
	if s.single != nil {
		s.singleMu.Lock()
		total += s.single.Histogram().MemoryBytes()
		s.singleMu.Unlock()
	}
	if s.tree != nil {
		total += s.tree.MemoryBytes()
	}
	return total
}
