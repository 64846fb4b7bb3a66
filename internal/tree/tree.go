// Package tree implements the tree-structured PMW-Bypass caching object of
// §4.4 and Alg. 2: a set of PMW-Bypass histograms arranged over the dyadic
// intervals of a partitioned timeseries database, answering linear range
// queries under parallel composition.
//
// A query requesting window [a, b] is split along the tree (min-cuts); the
// contiguous subset of nodes whose heuristics declare them ready is served
// by a single shared sparse-vector check over the aggregated estimate,
// while the remaining nodes run direct Laplace with budget jointly
// calibrated from the exact tail of their summed noise so the n-weighted
// combination of all components stays (α, β)-accurate. Failed SV checks
// update the member histograms in the shared direction; Laplace results
// update their node's histogram through the τα-guarded external rule.
//
// For streaming databases, newly arriving partitions warm-start their leaf
// histogram from the previous leaf, and lazily-created internal nodes
// average their existing children (§4.5).
//
// # Concurrency
//
// Node and sparse-vector state is guarded by one mutex, Tree.mu. Parallel
// composition needs no lock layout of its own: the block accountant
// charges every partition separately and is independently thread-safe.
//
// Run holds the lock for two short phases rather than its whole
// duration. The claim phase (locked) resolves routing, initializes and
// pays the shared SV, and snapshots each touched node's
// histogram together with its update epoch. The execute phase (unlocked)
// runs every data-plane operation — true-value scans, Laplace payments and
// DP releases — against the independently thread-safe dataset and
// accountant. The commit phase (locked again) performs the SV test and
// applies multiplicative-weights updates, but only to nodes whose update
// epoch is unchanged since claim: a node advanced by a concurrent query
// between the phases is skipped (counted in Stats.StaleSkips) rather than
// updated from a stale estimate. Payments always precede the releases they
// cover, so interleavings can skip updates but can never double-spend.
// Because the execute phase does the expensive work, concurrent queries
// overlap there whatever their windows; only the bookkeeping serializes.
//
// # Accounting modes
//
// Every mechanism — a shared sparse vector's initialization, a direct
// Laplace release — pays the per-partition Block it was constructed
// over, naming itself (accountant.SVInit, accountant.Laplace) and its
// window. How the payments compose is the block's business: a pure-ε
// block charges 3ε and ε, a Rényi block (Appendix B, Thm B.2) prices
// each by its curve and accepts while some order survives on every
// partition of the window, enforcing (ε_G, δ_G)-DP. The tree's
// mechanisms stay per-node Laplace either way (their joint calibration
// is Laplace-specific). A sparse vector declares its whole budget at
// initialization, so paying for it is all the admission Alg. 3 asks
// for; the tree keeps no handle on it beyond the SV itself.
package tree

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/interval"
	"repro/internal/noise"
	"repro/internal/pmw"
	"repro/internal/query"
	"repro/internal/sparse"
)

// Structure selects how windows decompose onto histograms (§6.3 Q6).
type Structure int

const (
	// Binary is the dyadic tree of Alg. 2.
	Binary Structure = iota
	// Flat maintains one histogram per partition only; a window of w
	// partitions splits into w leaves. Wins for small windows, loses to
	// Binary for large ones (§6.3).
	Flat
)

// String implements fmt.Stringer.
func (s Structure) String() string {
	if s == Flat {
		return "flat"
	}
	return "binary"
}

// Config parameterizes a tree-structured PMW-Bypass.
type Config struct {
	// Alpha, Beta are the per-query accuracy target.
	Alpha, Beta float64
	// Tau is the external-update margin.
	Tau float64
	// LR builds the learning-rate schedule for each node; nil defaults to
	// the theoretical α/8 constant.
	LR func() pmw.Schedule
	// Heuristic builds the readiness heuristic for each node; nil
	// defaults to Turbo's adaptive per-bin (C0=100, S0=5).
	Heuristic heuristic.Factory
	// Structure selects Binary (default) or Flat decomposition.
	Structure Structure
	// WarmStart enables §4.5 histogram warm-starting for new nodes.
	WarmStart bool
}

func (c *Config) fill() error {
	if c.Alpha <= 0 || c.Alpha >= 1 || c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("tree: bad accuracy target (%g,%g)", c.Alpha, c.Beta)
	}
	if c.Tau <= 0 || c.Tau > 0.5 {
		return fmt.Errorf("tree: tau %g out of (0,1/2]", c.Tau)
	}
	if c.LR == nil {
		alpha := c.Alpha
		c.LR = func() pmw.Schedule { return pmw.Constant(pmw.TheoreticalLR(alpha)) }
	}
	if c.Heuristic == nil {
		c.Heuristic = func() heuristic.Heuristic { return heuristic.NewAdaptivePerBin(100, 5) }
	}
	return nil
}

// Stats aggregates tree activity for the evaluation harness.
type Stats struct {
	Queries     int
	SVPasses    int // queries whose ready set passed the shared SV
	SVFailures  int
	LaplaceSubs int // subqueries answered through the Laplace branch
	// CacheHits is always 0: the tree keeps no node cache. It is a compile
	// shim for benchmark/, which reads it; a benchmark/-only change
	// removes it.
	CacheHits    int
	NodeUpdates  int // purposeful histogram updates across all nodes
	NodesCreated int
	StaleSkips   int // commit-phase MW updates skipped: node advanced mid-flight
}

// counters is Stats as lock-free atomics, bumped from the hot path.
type counters struct {
	queries, svPasses, svFailures, laplaceSubs atomic.Int64
	nodeUpdates, nodesCreated, staleSkips      atomic.Int64
}

// Tree is a tree-structured PMW-Bypass over a partitioned dataset. Safe
// for concurrent use: see the package comment for the locking discipline.
type Tree struct {
	cfg   Config
	exec  *dataset.Executor
	block *accountant.Block
	rng   *noise.Rng
	// calib prices the Laplace branch: the exact joint calibration,
	// memoized per subquery count (see noise.LaplaceCalibrator).
	calib *noise.LaplaceCalibrator

	// mu guards nodes and svs. Run holds it for its claim and commit
	// phases, never across execute.
	mu    sync.Mutex
	nodes map[interval.Node]*node
	// svs maps the canonical key of a ready node set to its live shared
	// SV (the set S of Alg. 2).
	svs map[string]*sparse.SV
	// spareSV is the shared SV a failing test last consumed, which the
	// next initialization recalibrates instead of making one.
	spareSV *sparse.SV
	// kidHeurs holds a warm-starting internal node's children's
	// heuristics while they are averaged, so the slice the heuristic is
	// handed is not made per node.
	kidHeurs [2]heuristic.Heuristic

	scratch sync.Pool // of *runScratch

	stats counters
}

// New creates a tree over exec's dataset, paying against block.
func New(cfg Config, exec *dataset.Executor, block *accountant.Block, rng *noise.Rng) (*Tree, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if exec == nil || block == nil || rng == nil {
		return nil, errors.New("tree: nil executor, accountant, or rng")
	}
	t := &Tree{
		cfg:   cfg,
		exec:  exec,
		block: block,
		rng:   rng,
		nodes: make(map[interval.Node]*node),
		svs:   make(map[string]*sparse.SV),
	}
	t.calib = noise.NewLaplaceCalibrator()
	t.scratch.New = func() any { return new(runScratch) }
	return t, nil
}

// Calibrator exposes the memoized Laplace calibration for telemetry.
func (t *Tree) Calibrator() *noise.LaplaceCalibrator { return t.calib }

// appendSplit decomposes a window according to the configured structure,
// appending into a reused scratch slice.
func (t *Tree) appendSplit(dst []interval.Node, start, end int) []interval.Node {
	if t.cfg.Structure == Flat {
		for i := start; i <= end; i++ {
			dst = append(dst, interval.Node{Start: i, End: i})
		}
		return dst
	}
	return interval.AppendSplit(dst, start, end)
}

// getNode returns (creating lazily, with warm-start when enabled) the state
// for a dyadic interval. A new node's histogram and heuristic are built
// once: warm-started from its neighbours, or uniform and default when it
// has none to copy. The caller holds t.mu.
func (t *Tree) getNode(iv interval.Node) *node {
	if n, ok := t.nodes[iv]; ok {
		return n
	}
	n := &node{
		iv:    iv,
		lr:    t.cfg.LR(),
		tau:   t.cfg.Tau,
		alpha: t.cfg.Alpha,
	}
	if t.cfg.WarmStart {
		t.warmStart(n)
	}
	if n.hist == nil {
		n.hist = histogram.NewUniform(t.exec.Dataset().Domain().Size())
	}
	if n.heur == nil {
		n.heur = t.cfg.Heuristic()
	}
	t.nodes[iv] = n
	t.stats.nodesCreated.Add(1)
	return n
}

// lookupNode returns an existing node without creating one. The caller
// holds t.mu.
func (t *Tree) lookupNode(iv interval.Node) (*node, bool) {
	n, ok := t.nodes[iv]
	return n, ok
}

// warmStart builds a fresh node's state from existing neighbours per
// §4.5: a leaf copies the previous partition's leaf, histogram and (if
// its design can) heuristic; an internal node averages its existing
// children's, into a default heuristic. What no trained neighbour gives
// stays nil, for getNode to make uniform and default. The caller holds
// t.mu.
func (t *Tree) warmStart(n *node) {
	if n.iv.IsLeaf() {
		if n.iv.Start == 0 {
			return
		}
		prev, ok := t.lookupNode(interval.Node{Start: n.iv.Start - 1, End: n.iv.End - 1})
		if !ok {
			return
		}
		n.hist = prev.hist.Clone()
		if ws, ok := prev.heur.(heuristic.WarmStartable); ok {
			n.heur = ws.CloneState()
		}
		return
	}
	var hists [2]*histogram.Histogram
	heurs := t.kidHeurs[:0]
	defer clear(t.kidHeurs[:])
	left, right := n.iv.Children()
	for _, c := range [2]interval.Node{left, right} {
		if cn, ok := t.lookupNode(c); ok {
			hists[len(heurs)] = cn.hist
			heurs = append(heurs, cn.heur)
		}
	}
	if len(heurs) == 0 {
		return
	}
	if avg, err := histogram.Average(hists[:len(heurs)]...); err == nil {
		n.hist = avg
	}
	n.heur = t.cfg.Heuristic()
	if ws, ok := n.heur.(heuristic.WarmStartable); ok {
		_ = ws.AverageState(heurs) // a design it cannot average keeps its defaults
	}
}

// EagerWarmStart materializes partition p's leaf state ahead of its first
// query, applying the §4.5 warm-start (copy the previous leaf's histogram
// and heuristic state) at ingestion time instead of on the first query
// that touches the partition. Arrivals call it before they publish
// partition p, so no query can have made the leaf first. It is a no-op
// when warm-starting is disabled. Safe for concurrent use.
func (t *Tree) EagerWarmStart(p int) {
	if !t.cfg.WarmStart || p < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.getNode(interval.Node{Start: p, End: p})
}

// LiveSVs returns the number of live shared sparse vectors — the
// interactive mechanisms currently composed concurrently (Alg. 3).
func (t *Tree) LiveSVs() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.svs)
}

// appendSVKey appends the canonical SV-registry key of a node set — the
// concatenation of the nodes' [a,b] renderings — into a reused scratch
// buffer. Byte-identical to the string svKey builds.
func appendSVKey(dst []byte, nodes []interval.Node) []byte {
	for _, n := range nodes {
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(n.Start), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(n.End), 10)
		dst = append(dst, ']')
	}
	return dst
}

// svKey canonicalizes a node set for the shared-SV registry.
func svKey(nodes []interval.Node) string {
	return string(appendSVKey(nil, nodes))
}

// Result reports one answered range query.
type Result struct {
	Value float64
	// SVNodes and LaplaceNodes count the split components answered by the
	// shared-SV and Laplace branches.
	SVNodes, LaplaceNodes int
	// Paid is the total pure-DP budget consumed, summed over partitions.
	Paid float64
	// SVFailed reports whether the shared SV check failed.
	SVFailed bool
}

// component is one n-weighted contribution to the final AGG.
type component struct {
	value float64
	n     int
}

// nodeClaim snapshots one split node during the locked claim phase: its
// state pointer, public row count, and histogram update epoch (for
// commit-time revalidation). est is the node's claim-time
// histogram estimate; commit reuses it for the τα rule and as the
// renormalization mass of MW updates, which is sound because updates only
// apply when the epoch is untouched — the histogram is then exactly as
// claimed. value carries the execute-phase Laplace release for lapNodes.
type nodeClaim struct {
	iv    interval.Node
	nd    *node
	ni    int
	epoch int
	est   float64
	value float64
}

// runScratch carries one Run's plan between its phases and is pooled
// across queries.
type runScratch struct {
	res Result

	split    []interval.Node
	nonEmpty []interval.Node
	nis      []int
	nds      []*node
	ready    []interval.Node
	svNodes  []nodeClaim
	lapNodes []nodeClaim
	comps    []component

	svKeyBuf []byte

	// Shared-SV claim state.
	spanStart, spanEnd int
	nSV                int
	epsSV              float64
	rH, rTrue          float64

	// Laplace claim state.
	nLap   int
	epsLap float64
}

// Run answers one linear range query through Alg. 2. The query's window
// defaults to the full store. On budget exhaustion it returns
// accountant.ErrBudgetExhausted (wrapped) and releases nothing new.
//
// Run is three-phase: a locked claim (routing, SV initialization, node
// snapshots), an unlocked execute (scans, payments, DP releases), and a
// locked commit (SV test, epoch-revalidated MW updates). See the package
// comment.
func (t *Tree) Run(q *query.Query) (Result, error) {
	ds := t.exec.Dataset()
	start, end := 0, ds.Partitions()-1
	if s, e, ok := q.Window(); ok {
		start, end = s, e
	}
	if start < 0 || end >= ds.Partitions() || start > end {
		return Result{}, fmt.Errorf("tree: window [%d,%d] out of range (%d partitions)", start, end, ds.Partitions())
	}

	sc := t.scratch.Get().(*runScratch)
	defer t.scratch.Put(sc)

	if err := t.claim(q, start, end, sc); err != nil {
		return Result{}, err
	}
	if err := t.execute(q, sc); err != nil {
		return Result{}, err
	}
	if err := t.commit(q, sc); err != nil {
		return Result{}, err
	}

	// Final aggregation (AGG): n-weighted average of components.
	totalN := 0
	weighted := 0.0
	for _, c := range sc.comps {
		weighted += float64(c.n) * c.value
		totalN += c.n
	}
	if totalN > 0 {
		sc.res.Value = weighted / float64(totalN)
	}
	t.stats.queries.Add(1)
	return sc.res, nil
}

// claim is Run's first locked phase: split the window, route its non-empty
// nodes between the shared-SV and Laplace branches, initialize (and pay)
// the shared SV, and snapshot every touched node's update epoch and
// claim-time estimate.
func (t *Tree) claim(q *query.Query, start, end int, sc *runScratch) error {
	ds := t.exec.Dataset()
	sc.res = Result{}
	sc.comps = sc.comps[:0]
	sc.nonEmpty = sc.nonEmpty[:0]
	sc.nis = sc.nis[:0]
	sc.nds = sc.nds[:0]
	sc.ready = sc.ready[:0]
	sc.svNodes = sc.svNodes[:0]
	sc.lapNodes = sc.lapNodes[:0]
	sc.nSV, sc.nLap = 0, 0
	sc.rH, sc.rTrue = 0, 0

	t.mu.Lock()
	defer t.mu.Unlock()

	sc.split = t.appendSplit(sc.split[:0], start, end)

	// 1. Partition the nodes that hold rows into the shared-SV set (ready,
	// contiguous) and the Laplace set.
	for _, iv := range sc.split {
		_, ni, err := ds.WindowMeta(iv.Start, iv.End)
		if err != nil {
			return err
		}
		if ni == 0 {
			continue // empty partitions contribute nothing
		}
		nd := t.getNode(iv)
		sc.nonEmpty = append(sc.nonEmpty, iv)
		sc.nis = append(sc.nis, ni)
		sc.nds = append(sc.nds, nd)
		if nd.ready(q) {
			sc.ready = append(sc.ready, iv)
		}
	}
	if len(sc.nonEmpty) == 0 {
		return nil
	}
	svSet, _ := interval.LargestContiguousSubset(sc.ready)
	spanStart, spanEnd := 0, -1
	if len(svSet) > 0 {
		spanStart, spanEnd = svSet[0].Start, svSet[len(svSet)-1].End
	}
	// The SV span is tiled entirely by ready nodes, so span containment
	// is exact membership in svSet.
	for i, iv := range sc.nonEmpty {
		c := nodeClaim{iv: iv, nd: sc.nds[i], ni: sc.nis[i]}
		c.epoch = c.nd.hist.Updates()
		if iv.Start >= spanStart && iv.End <= spanEnd {
			sc.svNodes = append(sc.svNodes, c)
			sc.nSV += c.ni
		} else {
			// Snapshot the estimate alongside the epoch: commit's τα rule
			// consumes it only on the epoch-intact path.
			c.est = c.nd.estimate(q)
			sc.lapNodes = append(sc.lapNodes, c)
			sc.nLap += c.ni
		}
	}

	// 2. Shared-SV claim: initialize (paying 3ε) if no live SV covers the
	// set, and compute the combined histogram estimate r_H from the
	// claim-time snapshots.
	if len(sc.svNodes) > 0 {
		sc.spanStart, sc.spanEnd = spanStart, spanEnd
		sc.epsSV = noise.SVEpsilonForAggregate(t.cfg.Alpha, t.cfg.Beta, sc.nSV)
		sc.svKeyBuf = appendSVKey(sc.svKeyBuf[:0], svSet)
		sv, ok := t.svs[string(sc.svKeyBuf)]
		if !ok || !sv.Live() {
			if err := t.svInitLocked(sc); err != nil {
				return err
			}
		}
		rH := 0.0
		for i := range sc.svNodes {
			c := &sc.svNodes[i]
			// The per-node estimate doubles as the claim-time snapshot for
			// a commit-phase directed update (consumed only epoch-intact).
			c.est = c.nd.estimate(q)
			w := float64(c.ni) / float64(sc.nSV)
			rH += w * c.est
		}
		sc.rH = rH
	}
	return nil
}

// svInitLocked pays for and creates a fresh shared SV for the claim's
// node set. The caller holds t.mu.
func (t *Tree) svInitLocked(sc *runScratch) error {
	epsSV, spanStart, spanEnd := sc.epsSV, sc.spanStart, sc.spanEnd
	if err := t.block.PayRange(spanStart, spanEnd, accountant.SVInit(epsSV)); err != nil {
		return err
	}
	sv := t.spareSV
	if sv == nil {
		sv = new(sparse.SV)
	}
	t.spareSV = nil
	sv.Recalibrate(epsSV, t.cfg.Alpha, sc.nSV, t.rng)
	sv.Reset()
	t.svs[string(sc.svKeyBuf)] = sv
	sc.res.Paid += 3 * epsSV * float64(spanEnd-spanStart+1)
	return nil
}

// execute is Run's unlocked phase: every data-plane operation. The
// dataset, executor, accountant, and RNG are independently thread-safe,
// so t.mu is not held while scanning rows, calibrating budget, or
// releasing DP results. Payments precede the releases they cover.
func (t *Tree) execute(q *query.Query, sc *runScratch) error {
	// Shared-SV branch: true value r*_SV over the claim set, n-weighted
	// in the same order the estimate was.
	if len(sc.svNodes) > 0 {
		rTrue := 0.0
		for i := range sc.svNodes {
			c := &sc.svNodes[i]
			tv, err := t.exec.ExecuteNP(q, c.iv.Start, c.iv.End)
			if err != nil {
				return err
			}
			w := float64(c.ni) / float64(sc.nSV)
			rTrue += w * tv
		}
		sc.rTrue = rTrue
	}

	// Laplace branch: jointly-calibrated per-node releases.
	if len(sc.lapNodes) > 0 {
		sc.epsLap = t.calib.Epsilon(t.cfg.Alpha, t.cfg.Beta/2, len(sc.lapNodes), sc.nLap)
		for i := range sc.lapNodes {
			c := &sc.lapNodes[i]
			if err := t.block.PayRange(c.iv.Start, c.iv.End, accountant.Laplace(sc.epsLap)); err != nil {
				return err
			}
			sc.res.Paid += sc.epsLap * float64(c.iv.Len())
			ri, err := t.exec.ExecuteDP(q, c.iv.Start, c.iv.End, sc.epsLap, math.NaN())
			if err != nil {
				return err
			}
			c.value = ri
			t.stats.laplaceSubs.Add(1)
		}
	}
	return nil
}

// commit is Run's second locked phase: consume the shared SV, apply MW
// updates to nodes whose update epoch is unchanged since claim (skipping
// — and counting — nodes a concurrent query advanced in between).
func (t *Tree) commit(q *query.Query, sc *runScratch) error {
	if len(sc.svNodes) == 0 && len(sc.lapNodes) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Shared-SV consume (Alg. 2 ll.18-26).
	if len(sc.svNodes) > 0 {
		sv, ok := t.svs[string(sc.svKeyBuf)]
		if !ok || !sv.Live() {
			// A concurrent query consumed the SV between our phases: pay a
			// fresh initialization so the test below is backed by live
			// budget, exactly as if this query had arrived after the
			// consumer.
			if err := t.svInitLocked(sc); err != nil {
				return err
			}
			sv = t.svs[string(sc.svKeyBuf)]
		}
		if sv.Test(sc.rH, sc.rTrue) {
			t.stats.svPasses.Add(1)
			sc.comps = append(sc.comps, component{sc.rH, sc.nSV})
		} else {
			// SV failed: pay for the Laplace release, drop the SV from the
			// live set (a future query on this node set pays a fresh init),
			// update all non-advanced member histograms in the shared
			// direction, and penalize their heuristics.
			t.stats.svFailures.Add(1)
			delete(t.svs, string(sc.svKeyBuf))
			t.spareSV = sv
			if err := t.block.PayRange(sc.spanStart, sc.spanEnd, accountant.Laplace(sc.epsSV)); err != nil {
				return err
			}
			sc.res.Paid += sc.epsSV * float64(sc.spanEnd-sc.spanStart+1)
			rSV := sc.rTrue + t.rng.Laplace(1/(sc.epsSV*float64(sc.nSV)))
			positive := rSV > sc.rH
			for i := range sc.svNodes {
				c := &sc.svNodes[i]
				if c.nd.hist.Updates() != c.epoch {
					t.stats.staleSkips.Add(1)
					continue
				}
				c.nd.directedUpdate(q, positive, c.est)
				c.nd.penalize(q)
				t.stats.nodeUpdates.Add(1)
			}
			sc.comps = append(sc.comps, component{rSV, sc.nSV})
			sc.res.SVFailed = true
		}
		sc.res.SVNodes = len(sc.svNodes)
	}

	// Laplace commit (Alg. 2 ll.32-33): τα-guarded external updates.
	if len(sc.lapNodes) > 0 {
		for i := range sc.lapNodes {
			c := &sc.lapNodes[i]
			if c.nd.hist.Updates() != c.epoch {
				t.stats.staleSkips.Add(1)
			} else {
				if c.nd.externalUpdate(q, c.value, c.est) {
					t.stats.nodeUpdates.Add(1)
				}
			}
			sc.comps = append(sc.comps, component{c.value, c.ni})
		}
		sc.res.LaplaceNodes = len(sc.lapNodes)
	}
	return nil
}

// Stats returns cumulative counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Queries:      int(t.stats.queries.Load()),
		SVPasses:     int(t.stats.svPasses.Load()),
		SVFailures:   int(t.stats.svFailures.Load()),
		LaplaceSubs:  int(t.stats.laplaceSubs.Load()),
		NodeUpdates:  int(t.stats.nodeUpdates.Load()),
		NodesCreated: int(t.stats.nodesCreated.Load()),
		StaleSkips:   int(t.stats.staleSkips.Load()),
	}
}

// Nodes returns the number of materialized node states.
func (t *Tree) Nodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.nodes)
}

// MemoryBytes estimates resident histogram state: the §6.5 metric
// (≈ 2·T·N scalars for a full binary tree).
func (t *Tree) MemoryBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, n := range t.nodes {
		total += n.hist.MemoryBytes()
	}
	return total
}
