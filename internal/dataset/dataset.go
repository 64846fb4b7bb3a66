// Package dataset is Turbo's database substrate: an in-memory columnar
// timeseries store standing in for the TimescaleDB/PostgreSQL backend of
// the paper's prototype (§5).
//
// Turbo needs exactly three things from the DBMS: (1) the true, non-private
// result of a linear query over a partition range (for SV checks and as the
// value the DP executor perturbs); (2) the public row count n per partition;
// and (3) partitions arriving over time for streaming workloads. A store
// keeping dense per-bin counts over the domain, summed as prefix rows
// across the time partitions, provides all three with the same semantics
// as a row store, since every linear counting query is a function of
// those counts alone.
//
// Rows can be ingested individually (AddRow) or in bulk via per-bin counts
// (AddCount), which is how the synthetic workload generators materialize
// paper-scale datasets (tens of millions of rows) without storing rows.
package dataset

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/domain"
	"repro/internal/query"
)

// partMeta is one partition's public metadata: its row count and the
// mutation stamp exact caches key on.
type partMeta struct {
	n       int
	version int
}

// Dataset is a partitioned timeseries store. For the non-partitioned use
// case it simply holds one partition. Safe for concurrent reads with
// serialized writes.
//
// Counts live as prefix rows (vector.go): cum[i] is the per-bin count
// summed over partitions [0, i), so there are len(parts)+1 rows. Rows
// 0..summed are true prefix sums; a row past the watermark still holds
// only its own partition's counts, and the first read that needs it sums
// every such row under the write lock. In-order loads therefore cost
// O(bins) each, and a load into a partition at or below the watermark
// adds to rows p+1..summed.
//
// The rows are exact only while every sum is an integer below 2^53, so
// the dataset never holds more than MaxRows rows: a load that would pass
// it is refused whole, and so is a restored state that does.
type Dataset struct {
	mu      sync.RWMutex
	dom     *domain.Domain
	parts   []partMeta
	cum     [][]float64
	summed  int
	total   int
	version int
}

// MaxRows is the most rows a dataset holds: below 2^53 every count,
// prefix sum and difference of prefix sums is an exactly-represented
// integer.
const MaxRows = 1<<53 - 1

// tooManyRows is the refusal of a load that would take a dataset past
// MaxRows.
func tooManyRows(p int) error {
	return fmt.Errorf("dataset: load into partition %d would take the dataset past %d rows", p, MaxRows)
}

// New creates an empty dataset over dom with the given number of (empty)
// partitions.
func New(dom *domain.Domain, partitions int) *Dataset {
	if partitions < 0 {
		panic(fmt.Sprintf("dataset: bad partition count %d", partitions))
	}
	ds := &Dataset{dom: dom, cum: [][]float64{make([]float64, dom.Size())}}
	for i := 0; i < partitions; i++ {
		ds.appendPartitionLocked()
	}
	return ds
}

func (ds *Dataset) appendPartitionLocked() int {
	ds.parts = append(ds.parts, partMeta{})
	ds.cum = append(ds.cum, make([]float64, ds.dom.Size()))
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

// PartitionCounts returns a copy of partition p's per-bin row counts.
func (ds *Dataset) PartitionCounts(p int) []int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	out := make([]int, ds.dom.Size())
	for bin, c := range ds.countsLocked(p) {
		out[bin] = int(c)
	}
	return out
}

// countsLocked returns a copy of partition p's own counts: its raw row
// past the watermark, or its prefix row less the one before it.
func (ds *Dataset) countsLocked(p int) []float64 {
	out := append([]float64(nil), ds.cum[p+1]...)
	if p+1 <= ds.summed {
		for b, c := range ds.cum[p] {
			out[b] -= c
		}
	}
	return out
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
// partition p. Used by bulk loaders. A refused load changes nothing.
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
	if count > MaxRows-ds.total {
		return tooManyRows(p)
	}
	for r := p + 1; r <= max(p+1, ds.summed); r++ {
		ds.cum[r][bin] += float64(count)
	}
	ds.parts[p].n += count
	ds.total += count
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
// of rows) without per-row ingestion. A refused load changes nothing.
func (ds *Dataset) BulkLoad(p int, counts []int) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if p < 0 || p >= len(ds.parts) {
		return fmt.Errorf("dataset: partition %d out of range [0,%d)", p, len(ds.parts))
	}
	if len(counts) != ds.dom.Size() {
		return fmt.Errorf("dataset: BulkLoad got %d bins for domain size %d", len(counts), ds.dom.Size())
	}
	n := 0
	for bin, c := range counts {
		if c < 0 {
			return fmt.Errorf("dataset: negative count %d at bin %d", c, bin)
		}
		if c > MaxRows-ds.total-n {
			return tooManyRows(p)
		}
		n += c
	}
	for r := p + 1; r <= max(p+1, ds.summed); r++ {
		row := ds.cum[r]
		for bin, c := range counts {
			row[bin] += float64(c)
		}
	}
	ds.parts[p].n += n
	ds.total += n
	ds.parts[p].version++
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

// ExportState copies the dataset's full content, one count vector per
// partition (prefix rows differenced back).
func (ds *Dataset) ExportState() State {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	st := State{Version: ds.version, Parts: make([]PartitionState, len(ds.parts))}
	for i, p := range ds.parts {
		st.Parts[i] = PartitionState{Counts: ds.countsLocked(i), N: p.n, Version: p.version}
	}
	return st
}

// CheckState validates a state against the dataset's domain without
// mutating anything: every partition has one count per bin, every count
// is a non-negative integer, each N is the sum of its partition's counts,
// and the grand total stays within MaxRows — the prefix rows' exactness
// precondition.
func (ds *Dataset) CheckState(st State) error {
	total := 0.0
	for i, p := range st.Parts {
		if len(p.Counts) != ds.dom.Size() {
			return fmt.Errorf("dataset: restored partition %d has %d bins, domain has %d",
				i, len(p.Counts), ds.dom.Size())
		}
		sum := 0.0
		for bin, c := range p.Counts {
			if !(c >= 0) || c != math.Trunc(c) {
				return fmt.Errorf("dataset: restored partition %d has count %g at bin %d, want a non-negative integer", i, c, bin)
			}
			sum += c
		}
		// An infinite count leaves an infinite sum, which no row count
		// equals; a sum past MaxRows, rounded or not, fails the total.
		if float64(p.N) != sum {
			return fmt.Errorf("dataset: restored partition %d has row count %d, its counts sum to %g", i, p.N, sum)
		}
		if total += sum; total > MaxRows {
			return fmt.Errorf("dataset: restored partitions pass %d rows by partition %d", MaxRows, i)
		}
	}
	return nil
}

// RestoreState replaces the dataset's content (partitions and version
// counter) with a previously-exported state over the same domain,
// refusing one CheckState refuses before anything changes.
func (ds *Dataset) RestoreState(st State) error {
	if err := ds.CheckState(st); err != nil {
		return err
	}
	parts := make([]partMeta, len(st.Parts))
	cum := make([][]float64, len(st.Parts)+1)
	cum[0] = make([]float64, ds.dom.Size())
	total := 0
	for i, p := range st.Parts {
		parts[i] = partMeta{n: p.N, version: p.Version}
		total += p.N
		row := make([]float64, len(p.Counts))
		for b, c := range p.Counts {
			row[b] = cum[i][b] + c
		}
		cum[i+1] = row
	}
	ds.mu.Lock()
	ds.parts, ds.cum, ds.summed, ds.total = parts, cum, len(parts), total
	ds.version = st.Version
	ds.mu.Unlock()
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
	return ds.total
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
// metadata pass. Evaluation is a gather-sum over q's resolved support on
// the window's bounding prefix rows, the lower one skipped for windows
// that start at partition 0 (vector.go).
func (ds *Dataset) TrueFractionN(q *query.Query, start, end int) (float64, int, error) {
	if err := ds.rlockWindow(start, end); err != nil {
		return 0, 0, err
	}
	n := 0
	for i := start; i <= end; i++ {
		n += ds.parts[i].n
	}
	matched := float64(n)
	if n > 0 && q.SupportSize() < ds.dom.Size() {
		bins := q.ResolvedSupport().Bins()
		matched = supportSum(bins, ds.cum[end+1])
		if start > 0 {
			matched -= supportSum(bins, ds.cum[start])
		}
	}
	ds.mu.RUnlock()
	if n == 0 {
		return 0, 0, nil
	}
	return matched / float64(n), n, nil
}

// TrueDistribution returns the normalized distribution over bins of
// partitions [start, end] — the ground-truth p that the convergence
// metrics compare histograms against. The returned slice is freshly
// allocated.
func (ds *Dataset) TrueDistribution(start, end int) ([]float64, error) {
	if err := ds.rlockWindow(start, end); err != nil {
		return nil, err
	}
	defer ds.mu.RUnlock()
	n := 0
	for i := start; i <= end; i++ {
		n += ds.parts[i].n
	}
	lo, hi := ds.cum[start], ds.cum[end+1]
	out := make([]float64, len(hi))
	for b := range out {
		out[b] = hi[b] - lo[b]
	}
	if n > 0 {
		for b := range out {
			out[b] /= float64(n)
		}
	}
	return out, nil
}
