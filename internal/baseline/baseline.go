// Package baseline implements the comparison systems of the Turbo
// evaluation: Direct Laplace (no cache), the Exact-Cache, the
// Tree Exact-Cache (the CacheDP-equivalent design of §6.3), and the
// Laplace Histogram of Appendix C, each a System the experiment harness
// drives uniformly. Vanilla PMW is provided by pmw.NewVanilla and Turbo
// itself by the core package.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/accountant"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/interval"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/store"
)

// newPrivateCache is a baseline's exact cache over ds, with an unbounded
// store of its own: baselines never share caching state across systems.
// It marks ds served, so an entry is never stale.
func newPrivateCache(ds *dataset.Dataset) *cache.Exact {
	c, err := cache.NewExact(store.NewMem(store.MemConfig{}))
	if err != nil {
		panic(err) // unreachable: the backend is never nil
	}
	ds.Serve()
	return c
}

// System answers linear queries end-to-end under a global DP guarantee.
type System interface {
	// Run answers q (α, β)-accurately or returns
	// accountant.ErrBudgetExhausted (wrapped) once the guarantee binds.
	Run(q *query.Query) (float64, error)
}

// window resolves a query's partition range, defaulting to the whole store.
func window(q *query.Query, ds *dataset.Dataset) (int, int) {
	if s, e, ok := q.Window(); ok {
		return s, e
	}
	return 0, ds.Partitions() - 1
}

// DirectLaplace answers every query with a fresh Laplace execution — the
// behaviour of DP SQL engines without any cache. Per-query budget uses the
// same calibration as Turbo (ε = 4ln(1/β)/nα) so that comparisons isolate
// caching behaviour rather than calibration choices.
type DirectLaplace struct {
	Alpha, Beta float64
	Exec        *dataset.Executor
	Block       *accountant.Block
}

// NewDirectLaplace builds the no-cache baseline.
func NewDirectLaplace(alpha, beta float64, exec *dataset.Executor, block *accountant.Block) *DirectLaplace {
	return &DirectLaplace{Alpha: alpha, Beta: beta, Exec: exec, Block: block}
}

// Run implements System.
func (d *DirectLaplace) Run(q *query.Query) (float64, error) {
	start, end := window(q, d.Exec.Dataset())
	n, err := d.Exec.Dataset().NRows(start, end)
	if err != nil {
		return 0, err
	}
	eps := noise.EpsilonForAccuracy(d.Alpha, d.Beta, n)
	if err := d.Block.PayRange(start, end, accountant.Laplace(eps)); err != nil {
		return 0, err
	}
	return d.Exec.ExecuteDP(q, start, end, eps, math.NaN())
}

// ExactCache answers repeats for free from an exact-match cache and falls
// back to Direct Laplace on misses. The cache key includes the window a
// query ran on — a windowless one's is the whole store as it was then —
// and budget is paid against the touched partitions.
type ExactCache struct {
	Alpha, Beta float64
	Exec        *dataset.Executor
	Block       *accountant.Block
	cache       *cache.Exact
}

// NewExactCache builds the exact-match cache baseline.
func NewExactCache(alpha, beta float64, exec *dataset.Executor, block *accountant.Block) *ExactCache {
	return &ExactCache{
		Alpha: alpha, Beta: beta, Exec: exec, Block: block,
		cache: newPrivateCache(exec.Dataset()),
	}
}

// Run implements System.
func (c *ExactCache) Run(q *query.Query) (float64, error) {
	start, end := window(q, c.Exec.Dataset())
	n, err := c.Exec.Dataset().NRows(start, end)
	if err != nil {
		return 0, err
	}
	if _, _, ok := q.Window(); !ok {
		q = q.WithWindow(start, end)
	}
	if v, ok := c.cache.Lookup(q.KeyWithWindow()); ok {
		return v, nil
	}
	eps := noise.EpsilonForAccuracy(c.Alpha, c.Beta, n)
	if err := c.Block.PayRange(start, end, accountant.Laplace(eps)); err != nil {
		return 0, err
	}
	r, err := c.Exec.ExecuteDP(q, start, end, eps, math.NaN())
	if err != nil {
		return 0, err
	}
	if err := c.cache.Put(q, r); err != nil {
		return 0, err
	}
	return r, nil
}

// TreeExactCache splits each query along the dyadic tree and keeps one
// exact cache per node, so sub-results are shared across overlapping
// windows. Per-node executions are calibrated pessimistically — accuracy
// (α, β/mMax) per node, mMax the worst-case split size — so any future
// combination of cached node results stays (α, β)-accurate. This extra
// "aggregation error" budget is exactly why the paper finds this design
// can lose to a flat Exact-Cache when the query pool is small (§6.4).
type TreeExactCache struct {
	Alpha, Beta float64
	Exec        *dataset.Executor
	Block       *accountant.Block
	cache       *cache.Exact
}

// NewTreeExactCache builds the per-node exact-match cache baseline.
func NewTreeExactCache(alpha, beta float64, exec *dataset.Executor, block *accountant.Block) *TreeExactCache {
	return &TreeExactCache{
		Alpha: alpha, Beta: beta, Exec: exec, Block: block,
		cache: newPrivateCache(exec.Dataset()),
	}
}

// maxSplit returns the worst-case number of split nodes for the current
// partition count.
func maxSplit(partitions int) int {
	m := 0
	for 1<<m < partitions {
		m++
	}
	return interval.MaxSplitNodes(m)
}

// Run implements System.
func (c *TreeExactCache) Run(q *query.Query) (float64, error) {
	ds := c.Exec.Dataset()
	start, end := window(q, ds)
	nodes := interval.Split(start, end)
	mMax := maxSplit(ds.Partitions())
	betaNode := c.Beta / float64(mMax)

	total := 0
	weighted := 0.0
	for _, node := range nodes {
		nq := q.WithWindow(node.Start, node.End)
		ni, err := ds.NRows(node.Start, node.End)
		if err != nil {
			return 0, err
		}
		if ni == 0 {
			continue
		}
		value, ok := c.cache.Lookup(nq.KeyWithWindow())
		if !ok {
			eps := noise.EpsilonForAccuracy(c.Alpha, betaNode, ni)
			if err := c.Block.PayRange(node.Start, node.End, accountant.Laplace(eps)); err != nil {
				return 0, err
			}
			value, err = c.Exec.ExecuteDP(nq, node.Start, node.End, eps, math.NaN())
			if err != nil {
				return 0, err
			}
			if err := c.cache.Put(nq, value); err != nil {
				return 0, err
			}
		}
		weighted += float64(ni) * value
		total += ni
	}
	if total == 0 {
		return 0, nil
	}
	return weighted / float64(total), nil
}

// LaplaceHistogram is the Appendix C baseline: pay once for a noisy count
// of every domain bin (L1 sensitivity 2), then answer arbitrarily many
// linear queries by post-processing. Its one-shot cost grows with
// sqrt(|X|), so it beats Direct Laplace only after ~2sqrt(2|X|/β)/ln(1/β)
// queries.
type LaplaceHistogram struct {
	Alpha, Beta float64
	Exec        *dataset.Executor
	Block       *accountant.Block
	rng         *noise.Rng

	noisy []float64 // noisy per-bin fractions, nil until first query
}

// NewLaplaceHistogram builds the one-shot noisy histogram baseline.
func NewLaplaceHistogram(alpha, beta float64, exec *dataset.Executor, block *accountant.Block, rng *noise.Rng) *LaplaceHistogram {
	return &LaplaceHistogram{Alpha: alpha, Beta: beta, Exec: exec, Block: block, rng: rng}
}

// Run implements System. The first query pays ε_Histogram and materializes
// the noisy histogram over the full store; every query (including the
// first) is then answered by post-processing.
func (l *LaplaceHistogram) Run(q *query.Query) (float64, error) {
	ds := l.Exec.Dataset()
	if l.noisy == nil {
		n := ds.NRowsAll()
		if n == 0 {
			return 0, fmt.Errorf("baseline: empty dataset")
		}
		eps := noise.LaplaceHistogramEpsilon(l.Alpha, l.Beta, n, ds.Domain().Size())
		if err := l.Block.PayRange(0, ds.Partitions()-1, accountant.Laplace(eps)); err != nil {
			return 0, err
		}
		dist, err := ds.TrueDistribution(0, ds.Partitions()-1)
		if err != nil {
			return 0, err
		}
		l.noisy = dist
		for i := range l.noisy {
			l.noisy[i] += l.rng.Laplace(2 / (eps * float64(n)))
		}
	}
	return q.Eval(l.noisy), nil
}
