// Package dataset is Turbo's database substrate: an in-memory columnar
// timeseries store standing in for the TimescaleDB/PostgreSQL backend of
// the paper's prototype (§5).
//
// Turbo needs exactly three things from the DBMS: (1) the true, non-private
// result of a linear query over a partition range (for SV checks and as the
// value the DP executor perturbs); (2) the public row count n per partition;
// and (3) partitions arriving over time for streaming workloads. A store
// keeping one dense count vector over the domain per time partition
// provides all three with the same semantics as a row store, since every
// linear counting query is a function of those counts alone.
//
// Rows can be ingested individually (AddRow) or in bulk via per-bin counts
// (AddCount), which is how the synthetic workload generators materialize
// paper-scale datasets (tens of millions of rows) without storing rows.
package dataset

import (
	"fmt"
	"sync"

	"repro/internal/domain"
	"repro/internal/query"
)

// Partition is one time slice of the database: a dense histogram of true
// counts over the domain plus its public size.
type Partition struct {
	counts  []float64
	n       int
	version int
}

// N returns the partition's public row count.
func (p *Partition) N() int { return p.n }

// Count returns the true number of rows in bin.
func (p *Partition) Count(bin int) float64 { return p.counts[bin] }

// Dataset is a partitioned timeseries store. For the non-partitioned use
// case it simply holds one partition. Safe for concurrent reads with
// serialized writes.
type Dataset struct {
	mu      sync.RWMutex
	dom     *domain.Domain
	parts   []*Partition
	version int

	// Window-aggregate cache of the vectorized execution engine
	// (vector.go).
	aggMu   sync.RWMutex
	aggs    map[int64]*winAgg
	aggBins int
}

// New creates an empty dataset over dom with the given number of (empty)
// partitions.
func New(dom *domain.Domain, partitions int) *Dataset {
	if partitions < 0 {
		panic(fmt.Sprintf("dataset: bad partition count %d", partitions))
	}
	ds := &Dataset{dom: dom, aggs: make(map[int64]*winAgg)}
	for i := 0; i < partitions; i++ {
		ds.appendPartitionLocked()
	}
	return ds
}

func (ds *Dataset) appendPartitionLocked() int {
	ds.parts = append(ds.parts, &Partition{counts: make([]float64, ds.dom.Size())})
	return len(ds.parts) - 1
}

// AppendPartition registers a new, empty time partition (streaming arrival)
// and returns its index.
func (ds *Dataset) AppendPartition() int {
	return ds.AppendPartitions(1)
}

// AppendPartitions registers k new, empty time partitions in one atomic
// epoch (batched streaming ingestion) and returns the index of the first.
// A concurrent reader observes either none or all of the batch.
func (ds *Dataset) AppendPartitions(k int) int {
	if k <= 0 {
		panic(fmt.Sprintf("dataset: bad partition batch %d", k))
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	first := len(ds.parts)
	for i := 0; i < k; i++ {
		ds.version++
		ds.appendPartitionLocked()
	}
	return first
}

// Domain returns the dataset's domain.
func (ds *Dataset) Domain() *domain.Domain { return ds.dom }

// Partition returns a read-only view of partition i (its fields are
// unexported, so callers can inspect counts but not mutate them).
func (ds *Dataset) Partition(i int) *Partition {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.parts[i]
}

// Partitions returns the current number of partitions.
func (ds *Dataset) Partitions() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return len(ds.parts)
}

// Version increases whenever data changes; exact caches key on it so stale
// results are never served after ingestion.
func (ds *Dataset) Version() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.version
}

// AddRow ingests one row with the given attribute values into partition p.
func (ds *Dataset) AddRow(p int, tuple []int) error {
	bin := ds.dom.Encode(tuple)
	return ds.AddCount(p, bin, 1)
}

// AddCount ingests count identical rows whose encoded value is bin into
// partition p. Used by bulk loaders.
func (ds *Dataset) AddCount(p, bin int, count int) error {
	if count < 0 {
		return fmt.Errorf("dataset: negative count %d", count)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if p < 0 || p >= len(ds.parts) {
		return fmt.Errorf("dataset: partition %d out of range [0,%d)", p, len(ds.parts))
	}
	if bin < 0 || bin >= ds.dom.Size() {
		return fmt.Errorf("dataset: bin %d out of range [0,%d)", bin, ds.dom.Size())
	}
	ds.parts[p].counts[bin] += float64(count)
	ds.parts[p].n += count
	ds.parts[p].version++
	ds.version++
	return nil
}

// RangeVersion summarizes the mutation state of partitions [start, end];
// exact caches record it so a cached result is served only while the data
// it was computed on is unchanged. Appending new partitions does not
// invalidate results on old ranges.
func (ds *Dataset) RangeVersion(start, end int) (int, error) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if start < 0 || end >= len(ds.parts) || start > end {
		return 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, len(ds.parts))
	}
	v := 0
	for i := start; i <= end; i++ {
		v += ds.parts[i].version
	}
	return v, nil
}

// WindowMeta returns the data version and public row count of partitions
// [start, end] in one read-locked pass — the planner's hot-path accessor.
func (ds *Dataset) WindowMeta(start, end int) (version, rows int, err error) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if start < 0 || end >= len(ds.parts) || start > end {
		return 0, 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, len(ds.parts))
	}
	for i := start; i <= end; i++ {
		version += ds.parts[i].version
		rows += ds.parts[i].n
	}
	return version, rows, nil
}

// BulkLoad adds per-bin row counts to partition p in one call. Workload
// generators use it to materialize paper-scale datasets (tens of millions
// of rows) without per-row ingestion.
func (ds *Dataset) BulkLoad(p int, counts []int) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if p < 0 || p >= len(ds.parts) {
		return fmt.Errorf("dataset: partition %d out of range [0,%d)", p, len(ds.parts))
	}
	if len(counts) != ds.dom.Size() {
		return fmt.Errorf("dataset: BulkLoad got %d bins for domain size %d", len(counts), ds.dom.Size())
	}
	part := ds.parts[p]
	for bin, c := range counts {
		if c < 0 {
			return fmt.Errorf("dataset: negative count %d at bin %d", c, bin)
		}
		part.counts[bin] += float64(c)
		part.n += c
	}
	part.version++
	ds.version++
	return nil
}

// PartitionState is the serializable content of one partition.
type PartitionState struct {
	Counts  []float64
	N       int
	Version int
}

// State is the full serializable content of a dataset, for deployments
// whose store is in-memory (turbo-server's synthetic builds) rather than
// an external durable DBMS: the session can carry it as a snapshot
// section (core.Session.PersistDataset) so applied streaming arrivals
// survive a restart.
type State struct {
	Version int
	Parts   []PartitionState
}

// ExportState copies the dataset's full content.
func (ds *Dataset) ExportState() State {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	st := State{Version: ds.version, Parts: make([]PartitionState, len(ds.parts))}
	for i, p := range ds.parts {
		st.Parts[i] = PartitionState{
			Counts:  append([]float64(nil), p.counts...),
			N:       p.n,
			Version: p.version,
		}
	}
	return st
}

// RestoreState replaces the dataset's content (partitions and version
// counter) with a previously-exported state over the same domain.
func (ds *Dataset) RestoreState(st State) error {
	parts := make([]*Partition, len(st.Parts))
	for i, p := range st.Parts {
		if len(p.Counts) != ds.dom.Size() {
			return fmt.Errorf("dataset: restored partition %d has %d bins, domain has %d",
				i, len(p.Counts), ds.dom.Size())
		}
		if p.N < 0 {
			return fmt.Errorf("dataset: restored partition %d has negative row count %d", i, p.N)
		}
		for bin, c := range p.Counts {
			if c < 0 {
				return fmt.Errorf("dataset: restored partition %d has negative count %g at bin %d", i, c, bin)
			}
		}
		parts[i] = &Partition{
			counts:  append([]float64(nil), p.Counts...),
			n:       p.N,
			version: p.Version,
		}
	}
	ds.mu.Lock()
	ds.parts = parts
	ds.version = st.Version
	ds.mu.Unlock()
	// Restored partition versions are whatever the snapshot recorded, so a
	// pre-restore aggregate's version stamp could collide with different
	// data; drop the cache rather than trust the stamps.
	ds.aggMu.Lock()
	ds.aggs = make(map[int64]*winAgg)
	ds.aggBins = 0
	ds.aggMu.Unlock()
	return nil
}

// NRows returns the public total row count of partitions [start, end].
func (ds *Dataset) NRows(start, end int) (int, error) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if start < 0 || end >= len(ds.parts) || start > end {
		return 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, len(ds.parts))
	}
	n := 0
	for i := start; i <= end; i++ {
		n += ds.parts[i].n
	}
	return n, nil
}

// NRowsAll returns the public total row count.
func (ds *Dataset) NRowsAll() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	n := 0
	for _, p := range ds.parts {
		n += p.n
	}
	return n
}

// PartitionN returns the public row count of partition i.
func (ds *Dataset) PartitionN(i int) int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.parts[i].n
}

// TrueFraction executes q without DP over partitions [start, end],
// returning the fraction of rows matching the predicate. This is the
// executeNPQuery path of the Turbo API (Fig. 7b): its result is only ever
// used inside SV checks or perturbed by the DP executor, never released.
func (ds *Dataset) TrueFraction(q *query.Query, start, end int) (float64, error) {
	frac, _, err := ds.TrueFractionN(q, start, end)
	return frac, err
}

// TrueFractionN is TrueFraction that also returns the window's public row
// count, so the DP executor scales its noise without a second locked
// metadata pass. Evaluation runs over the window's aggregated count
// vector as a gather-sum over q's resolved support (vector.go).
func (ds *Dataset) TrueFractionN(q *query.Query, start, end int) (float64, int, error) {
	ds.mu.RLock()
	if start < 0 || end >= len(ds.parts) || start > end {
		n := len(ds.parts)
		ds.mu.RUnlock()
		return 0, 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, n)
	}
	if start == end {
		// Single-partition windows evaluate in place: no aggregate to
		// maintain, one vector scan under the read lock.
		p := ds.parts[start]
		if p.n == 0 {
			ds.mu.RUnlock()
			return 0, 0, nil
		}
		matched := float64(p.n)
		if q.SupportSize() < ds.dom.Size() {
			matched = evalVec(q, p.counts)
		}
		n := p.n
		ds.mu.RUnlock()
		return matched / float64(n), n, nil
	}
	version := 0
	for i := start; i <= end; i++ {
		version += ds.parts[i].version
	}
	ds.mu.RUnlock()
	a := ds.windowAgg(start, end, version)
	if a.rows == 0 {
		return 0, 0, nil
	}
	if q.SupportSize() == ds.dom.Size() {
		return 1, a.rows, nil
	}
	return evalVec(q, a.counts) / float64(a.rows), a.rows, nil
}

// TrueDistribution returns the normalized distribution over bins of
// partitions [start, end] — the ground-truth p that the convergence
// metrics compare histograms against. The returned slice is freshly
// allocated.
func (ds *Dataset) TrueDistribution(start, end int) ([]float64, error) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if start < 0 || end >= len(ds.parts) || start > end {
		return nil, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, len(ds.parts))
	}
	out := make([]float64, ds.dom.Size())
	n := 0.0
	for i := start; i <= end; i++ {
		for b, c := range ds.parts[i].counts {
			out[b] += c
		}
		n += float64(ds.parts[i].n)
	}
	if n > 0 {
		for b := range out {
			out[b] /= n
		}
	}
	return out, nil
}
