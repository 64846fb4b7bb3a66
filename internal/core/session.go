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
//  1. plan — the Planner resolves the query to a partition window, data
//     version, and view size. Lock-free.
//  2. cache — the window-level exact cache is probed. The cache is
//     concurrency-safe, so exact hits (the cheapest and, under skewed
//     workloads, most common path, Fig. 11d) never serialize.
//  3. dedup — cache misses enter the single-flight group keyed by the
//     resolved window and data version (flight.go): concurrent identical
//     first-timers execute and pay once, with duplicates observing the
//     leader's released answer.
//  4. execute — the flight leader runs the PMW machinery on its shard:
//     the single PMW-Bypass behind the session's one executor lock
//     (non-partitioned), or the tree, which locks only the state shards
//     overlapping the query's window so disjoint windows run in parallel
//     (partitioned).
//  5. account — budget is deducted through the one thread-safe block
//     accountant, which realizes parallel composition across shards and
//     whose atomic range payment is the Appendix B filter for the
//     mechanisms composed concurrently, in every mode.
//
// For streaming databases, partitions arrive through AppendPartitions
// epochs (the accountant grows strictly before the dataset); the
// internal/stream Ingestor batches and coalesces those arrivals and
// eagerly warm-starts the new tree leaves.
//
// Sessions are safe for concurrent use by many request goroutines.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

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
	// Shards is the number of concurrent executor shards the partitioned
	// tree state is striped into. Values ≤ 1 keep one shard, which
	// serializes execution exactly like the pre-pipeline session (the
	// exact-cache front and metadata reads are concurrent regardless).
	// Ignored in non-partitioned mode, whose single PMW is one shard by
	// construction.
	Shards int
	// Backend selects the storage backend every caching layer programs
	// against (the paper's replaceable Redis tier): nil defaults to the
	// unbounded in-memory store (store.NewMem with no caps); the same store
	// built with a cap is the memory-bounded segmented LRU. Eviction is
	// always safe — an evicted release re-executes and re-pays through the
	// single-flight path.
	Backend store.Backend
	// CacheFastEntries bounds the exact cache's decoded fast map (0 uses
	// cache.DefaultFastEntries). Tests shrink it to expose backend
	// evictions that the fast map would otherwise mask.
	CacheFastEntries int
}

func (c *Config) fill() error {
	if c.Alpha <= 0 || c.Alpha >= 1 || c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("core: bad accuracy target (%g,%g)", c.Alpha, c.Beta)
	}
	if c.EpsilonGlobal <= 0 {
		return fmt.Errorf("core: bad global budget %g", c.EpsilonGlobal)
	}
	if c.Tau == 0 {
		c.Tau = 0.05
	}
	if c.Tau < 0 || c.Tau > 0.5 {
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
// the planner and exact-cache stages are lock-free, execution serializes
// per shard, and accounting goes through thread-safe accountants.
type Session struct {
	cfg     Config
	ds      *dataset.Dataset
	exec    *dataset.Executor
	block   *accountant.Block
	store   store.Backend
	exact   *cache.Exact
	rng     *noise.Rng
	planner *Planner

	// Non-partitioned machinery: one executor shard.
	singleMu sync.Mutex
	single   *pmw.PMW
	// Partitioned machinery: the tree shards internally.
	tree *tree.Tree

	// flights deduplicates concurrent identical cache misses so N
	// first-timers on the same window/version execute and pay once.
	flights flightGroup
	// registry holds the session's durable-state sections (persist.go);
	// stateful layers register at construction, the streaming ingestor
	// later through RegisterSnapshotter. persistMu serializes
	// SaveState/LoadState against each other; restoreMutated records,
	// under persistMu, whether the in-flight restore started mutating.
	registry       *persist.Registry
	persistMu      sync.Mutex
	restoreMutated bool
	// persistData opts snapshots into carrying the dataset itself
	// (PersistDataset); set before serving traffic.
	persistData bool
	// appendMu serializes stream-append epochs so each epoch's accountant
	// growth and dataset growth assign corresponding indices.
	appendMu sync.Mutex

	queries atomic.Int64
	deduped atomic.Int64
	exhaust atomic.Bool
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

// NewSession creates a Turbo session over ds.
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
	// Stripe the session-exact namespace by executor shard in partitioned
	// modes, so per-shard executors probe disjoint namespaces (and
	// disjoint fast-map locks) instead of contending on one.
	exactStripes, exactWidth := 1, 0
	if cfg.Mode != NonPartitioned && cfg.Shards > 1 {
		exactStripes = cfg.Shards
		exactWidth = (ds.Partitions() + cfg.Shards - 1) / cfg.Shards
	}
	exact, err := cache.NewExactSharded(be, "session-exact", cfg.CacheFastEntries, exactWidth, exactStripes)
	if err != nil {
		return nil, err
	}
	// The session's one set of privacy books: a pure-ε block, or under
	// Gaussian/Rényi accounting the same block over a grid of finite
	// orders enforcing (ε_G, δ_G)-DP. Every mechanism of every mode pays
	// it, and every budget report reads it.
	var block *accountant.Block
	if cfg.Gaussian {
		if cfg.DeltaGlobal <= 0 || cfg.DeltaGlobal >= 1 {
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
		// The single PMW-Bypass is one executor shard paying the whole
		// partition range: its sparse vector and direct releases compose
		// concurrently with adaptively chosen budgets, which is the
		// setting Thm B.1/B.2 prove the block's stopping rule sound for.
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
			Shards:    cfg.Shards,
		}, s.exec, s.block, rng.Fork())
		if err != nil {
			return nil, err
		}
		s.tree = t
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	s.buildRegistry()
	return s, nil
}

// Dataset returns the underlying store.
func (s *Session) Dataset() *dataset.Dataset { return s.ds }

// Planner returns the session's planning stage.
func (s *Session) Planner() *Planner { return s.planner }

// AppendPartition registers one newly-arrived stream partition, returning
// its index. See AppendPartitions for the ordering guarantees.
func (s *Session) AppendPartition() (int, error) {
	return s.AppendPartitions(1)
}

// AppendPartitions registers one ingestion epoch of k newly-arrived stream
// partitions with the accountant and then the store, returning the index
// of the first. The accountant grows strictly first so that by the time a
// query can name any partition of the epoch (the dataset's count is the
// validation bound) its budget already exists. Epochs are serialized, so
// the k accountant slots and the k dataset partitions of one epoch always
// correspond. Callers then load data with Dataset().AddRow / AddCount /
// BulkLoad before issuing queries over the new partitions.
//
// Non-partitioned sessions refuse the append: their single PMW-Bypass and
// its payer's window are fixed over the initial partition range, so a
// grown dataset would let queries name partitions whose releases no
// accountant covers.
func (s *Session) AppendPartitions(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("core: bad partition batch %d", k)
	}
	if s.tree == nil {
		return 0, errors.New("core: streaming arrivals need a partitioned session " +
			"(the single PMW's accountant window cannot grow)")
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.block.AddPartitions(k)
	return s.ds.AppendPartitions(k), nil
}

// Answer runs one linear query through the Turbo pipeline of Fig. 1:
// plan, exact cache, then PMW-Bypass (single or tree). It returns
// accountant.ErrBudgetExhausted (wrapped) once the global guarantee binds.
func (s *Session) Answer(q *query.Query) (Answer, error) {
	pl, err := s.planner.Plan(q)
	if err != nil {
		return Answer{}, err
	}
	if e, ok := s.exact.Get(q, pl.Version); ok {
		s.record(SourceExactHit)
		return Answer{Value: e.Value, Source: SourceExactHit,
			Start: pl.Start, End: pl.End, Rows: pl.Rows}, nil
	}
	ans, shared, err := s.execute(pl, flightKey(pl))
	if err != nil {
		s.noteErr(err)
		return Answer{}, err
	}
	ans.Start, ans.End, ans.Rows = pl.Start, pl.End, pl.Rows
	if shared {
		s.deduped.Add(1)
	}
	s.record(ans.Source)
	return ans, nil
}

// flightKeyPool recycles the scratch buffers flight keys are assembled
// in, so a miss costs one allocation (the key string the flight map needs)
// instead of Sprintf's boxing and formatting state.
var flightKeyPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 96); return &b },
}

// flightKey builds the single-flight identity "key@vN" for a plan: the
// exact-cache identity, predicate + window + data version. Keying on the
// version means a query planned against newer data never shares a stale
// in-flight execution.
func flightKey(pl Plan) string {
	bp := flightKeyPool.Get().(*[]byte)
	b := append((*bp)[:0], pl.Query.KeyWithWindow()...)
	b = append(b, "@v"...)
	b = strconv.AppendInt(b, int64(pl.Version), 10)
	key := string(b)
	*bp = b
	flightKeyPool.Put(bp)
	return key
}

// execute runs a cache-missed plan through the single-flight group under
// key (flightKey(pl)) and, as the flight leader, on its executor shard.
// shared reports that the answer came from a concurrent identical flight
// (no execution, no payment).
func (s *Session) execute(pl Plan, key string) (Answer, bool, error) {
	return s.flights.do(key, func() (Answer, error) {
		// Double-check the exact cache as the leader: an identical query
		// may have completed (and cached) between this goroutine's cache
		// probe and its flight. Sequential re-check, where the old
		// non-partitioned path double-checked under its shard lock;
		// concurrent duplicates are handled by the flight group itself.
		if e, ok := s.exact.Get(pl.Query, pl.Version); ok {
			return Answer{Value: e.Value, Source: SourceExactHit}, nil
		}
		ans, err := s.executeShard(pl)
		if err != nil {
			return Answer{}, err
		}
		// Cache the paid answer inside the flight, before the key is
		// released: a duplicate that misses the in-flight map must find
		// the cache filled, or it would execute — and pay — again.
		if err := s.exact.Put(pl.Query, pl.Version, ans.Value, ans.Paid); err != nil {
			return Answer{}, err
		}
		return ans, nil
	})
}

// executeShard runs a plan on its executor shard: the single PMW-Bypass
// behind its lock, or the tree's window-locked shards.
func (s *Session) executeShard(pl Plan) (Answer, error) {
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

// Run satisfies the experiment harness's System interface.
func (s *Session) Run(q *query.Query) (float64, error) {
	a, err := s.Answer(q)
	return a.Value, err
}

// Name identifies the system in experiment output.
func (s *Session) Name() string { return "turbo(" + s.cfg.Mode.String() + ")" }

func (s *Session) record(src Source) {
	s.queries.Add(1)
	s.bySrc[sourceIndex[src]].Add(1)
}

// recordN counts n answers from one source in two atomic adds — the
// batch plane's fan-out uses it instead of n record calls.
func (s *Session) recordN(src Source, n int) {
	s.queries.Add(int64(n))
	s.bySrc[sourceIndex[src]].Add(int64(n))
}

func (s *Session) noteErr(err error) {
	if errors.Is(err, accountant.ErrBudgetExhausted) {
		s.exhaust.Store(true)
	}
}

// Exhausted reports whether the session has hit the global guarantee.
func (s *Session) Exhausted() bool { return s.exhaust.Load() }

// Queries returns the number of answered queries.
func (s *Session) Queries() int { return int(s.queries.Load()) }

// Deduped returns the number of answers served by sharing a concurrent
// identical flight (single-flight deduplication) rather than executing.
func (s *Session) Deduped() int { return int(s.deduped.Load()) }

// Mode returns the session's use case.
func (s *Session) Mode() Mode { return s.cfg.Mode }

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

// MaxSpent returns the maximum per-partition consumed budget (the
// δ_G-converted maximum in Gaussian mode).
func (s *Session) MaxSpent() float64 { return s.block.MaxSpent() }

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

// PMW exposes the single PMW-Bypass in non-partitioned mode (nil
// otherwise), for convergence metrics.
func (s *Session) PMW() *pmw.PMW { return s.single }

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
