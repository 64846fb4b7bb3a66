// Query sampling and window generation (§6.1 "Workload generation").

package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/noise"
	"repro/internal/query"
)

// Zipf samples queries from a pool with probability ∝ rank^(-k), the
// standard skewness model of the caching literature; k = 0 is uniform.
type Zipf struct {
	pool []*query.Query
	cdf  []float64
	rng  *noise.Rng
	k    float64
}

// NewZipf builds a sampler over pool with skew k ≥ 0. The pool order
// defines the rank of each query (rank 1 is hottest).
func NewZipf(pool []*query.Query, k float64, rng *noise.Rng) (*Zipf, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("workload: empty query pool")
	}
	if k < 0 {
		return nil, fmt.Errorf("workload: negative zipf parameter %g", k)
	}
	z := &Zipf{pool: pool, cdf: make([]float64, len(pool)), rng: rng, k: k}
	sum := 0.0
	for i := range pool {
		sum += math.Pow(float64(i+1), -k)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z, nil
}

// Sample draws one query (with replacement).
func (z *Zipf) Sample() *query.Query {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.pool) {
		i = len(z.pool) - 1
	}
	return z.pool[i]
}

// SampleN draws n queries.
func (z *Zipf) SampleN(n int) []*query.Query {
	out := make([]*query.Query, n)
	for i := range out {
		out[i] = z.Sample()
	}
	return out
}

// Shuffle returns a permuted copy of a pool so that Zipf rank is decoupled
// from generation order.
func Shuffle(pool []*query.Query, rng *noise.Rng) []*query.Query {
	out := make([]*query.Query, len(pool))
	for i, j := range rng.Perm(len(pool)) {
		out[i] = pool[j]
	}
	return out
}

// Windows generates the partition windows of the partitioned use cases.
type Windows struct {
	rng *noise.Rng
}

// NewWindows builds a window generator.
func NewWindows(rng *noise.Rng) *Windows { return &Windows{rng: rng} }

// UniformContiguous draws a random contiguous window of 1..partitions
// partitions (Fig. 10: "random contiguous window of 1 to 50 partitions").
func (w *Windows) UniformContiguous(partitions int) (start, end int) {
	size := 1 + w.rng.IntN(partitions)
	start = w.rng.IntN(partitions - size + 1)
	return start, start + size - 1
}

// GaussianSize draws a contiguous window whose size is Gaussian around
// mean with the given std-dev, clipped to [1, partitions] (§6.3 Q6).
func (w *Windows) GaussianSize(partitions int, mean, stddev float64) (start, end int) {
	size := int(mean + stddev*w.rng.Gaussian(1) + 0.5)
	if size < 1 {
		size = 1
	}
	if size > partitions {
		size = partitions
	}
	start = w.rng.IntN(partitions - size + 1)
	return start, start + size - 1
}

// LatestWindow draws a window over the most recent partitions: size P
// uniform in [1, available], ending at the newest partition (§6.4:
// "queries request the latest P partitions").
func (w *Windows) LatestWindow(available int) (start, end int) {
	p := 1 + w.rng.IntN(available)
	return available - p, available - 1
}

// PoissonArrivals returns, for each of n queries, how many new partitions
// arrive before that query executes, with expected rate queries-per-
// partition λ (queries arrive as a Poisson process relative to partition
// arrivals; §6.1 "queries arrive online with arrival times following a
// Poisson process"). The generator is deterministic given the rng.
func (w *Windows) PoissonArrivals(n int, queriesPerPartition float64) []int {
	if queriesPerPartition <= 0 {
		panic("workload: non-positive arrival rate")
	}
	out := make([]int, n)
	for i := range out {
		// Each query boundary independently admits k new partitions with
		// k ~ Poisson(1/queriesPerPartition).
		out[i] = poisson(w.rng, 1/queriesPerPartition)
	}
	return out
}

// poisson draws from Poisson(lambda) by inversion (lambda is small here).
func poisson(rng *noise.Rng, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
