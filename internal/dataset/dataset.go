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
// Partitions are loaded as per-bin counts (Append), which is how the
// synthetic workload generators materialize paper-scale datasets (tens of
// millions of rows) without storing rows. A served dataset only grows:
// once a cache is built over it (Serve), a partition's rows never change,
// so a window's data is a function of its bounds and a cached release of
// it never goes stale. Append is the one way data enters a served
// dataset, and its checks (CheckAppend) the one validator: a restored
// snapshot's partitions past the dataset's are appended through it.
package dataset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/query"
)

// view is one immutable state of a dataset. sums[i] and cum[i] sum
// partitions [0, i) — the row count and the per-bin counts (vector.go) —
// so there are parts+1 of each and any window's row count is one
// subtraction. A published view is never written: a writer builds the
// next one, sharing the rows and the backing arrays it does not change
// (an append writes only past the old view's lengths), and publishes it.
type view struct {
	sums []int
	cum  [][]float64
}

// window returns the row count of partitions [start, end], refusing a
// window the view does not hold.
func (v *view) window(start, end int) (int, error) {
	if start < 0 || end+1 >= len(v.sums) || start > end {
		return 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, len(v.sums)-1)
	}
	return v.sums[end+1] - v.sums[start], nil
}

// Dataset is a partitioned timeseries store. For the non-partitioned use
// case it simply holds one partition. A read loads the current view once
// and never locks; writers serialize on writeMu, which no reader takes,
// and publish a new view when they are done, so a reader sees a load
// whole or not at all, and a partition only once it is loaded.
//
// The rows are exact only while every sum is an integer below 2^53, so
// the dataset never holds more than MaxRows rows: a load that would pass
// it is refused whole.
type Dataset struct {
	dom *domain.Domain
	cur atomic.Pointer[view]
	// writeMu serializes writers; spare, which only writers touch, is
	// the unused tail of the chunk appended partitions' rows come from,
	// and served, set under it, refuses BulkLoad once a cache reads the
	// dataset.
	writeMu sync.Mutex
	spare   []float64
	served  bool
}

// rowChunk is the size, in counts, of the chunks appended rows are cut
// from: a narrow domain's arrival allocates a fraction of an object, and
// a chunk leaves at most 16 KiB unused.
const rowChunk = 2048

// MaxRows is the most rows a dataset holds: below 2^53 every count,
// prefix sum and difference of prefix sums is an exactly-represented
// integer.
const MaxRows = 1<<53 - 1

// New creates an empty dataset over dom with the given number of (empty)
// partitions.
func New(dom *domain.Domain, partitions int) *Dataset {
	if partitions < 0 {
		panic(fmt.Sprintf("dataset: bad partition count %d", partitions))
	}
	zero := make([]float64, dom.Size())
	v := &view{sums: make([]int, partitions+1), cum: make([][]float64, partitions+1)}
	for i := range v.cum {
		v.cum[i] = zero
	}
	ds := &Dataset{dom: dom}
	ds.cur.Store(v)
	return ds
}

// Build returns a dataset of parts partitions, partition p appended with
// the counts fill(p, counts) writes into a zeroed buffer.
func Build(dom *domain.Domain, parts int, fill func(p int, counts []int)) (*Dataset, error) {
	ds := New(dom, 0)
	counts := make([]int, dom.Size())
	for p := 0; p < parts; p++ {
		clear(counts)
		fill(p, counts)
		if _, err := ds.Append(nil, counts); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// Serve marks the dataset served: a cache now keeps releases of its
// windows, so from here on it only grows (Append), and BulkLoad is
// refused. Every cache built over a dataset calls it.
func (ds *Dataset) Serve() {
	ds.writeMu.Lock()
	ds.served = true
	ds.writeMu.Unlock()
}

// AppendPartition registers a new, empty time partition and returns its
// index. It is Append of one empty partition, kept with BulkLoad for the
// benchmark's truth twin (ROADMAP item 21 deletes both).
func (ds *Dataset) AppendPartition() int {
	first, _ := ds.Append(nil, nil) // one nil load: an empty partition
	return first
}

// Append adds len(counts) partitions, partition first+i holding the
// per-bin row counts counts[i] (a nil entry an empty partition), and
// returns first. It refuses the whole batch, changing nothing, when a
// load does not fit the domain, holds a negative count or would take the
// dataset past MaxRows. ready, when not nil, runs with first and the
// batch's size once the batch has passed those checks and before any
// reader can see it, so what a caller keeps per partition exists by the
// time a query can name one; it runs under the writer lock, so it must
// not write to the dataset.
func (ds *Dataset) Append(ready func(first, k int), counts ...[]int) (int, error) {
	ds.writeMu.Lock()
	defer ds.writeMu.Unlock()
	v := ds.cur.Load()
	if err := ds.checkBatch(v, counts); err != nil {
		return 0, err
	}
	first := len(v.sums) - 1
	next := &view{sums: v.sums, cum: v.cum}
	for _, c := range counts {
		last, prev := next.sums[len(next.sums)-1], next.cum[len(next.cum)-1]
		row := prev
		if c != nil {
			row = ds.row()
			for b, x := range c {
				row[b] = prev[b] + float64(x)
				last += x
			}
		}
		next.sums = append(next.sums, last)
		next.cum = append(next.cum, row)
	}
	if ready != nil {
		ready(first, len(counts))
	}
	ds.cur.Store(next)
	return first, nil
}

// row cuts an appended partition's row from the spare chunk, starting a
// new chunk when the spare is too short. The caller holds writeMu.
func (ds *Dataset) row() []float64 {
	bins := ds.dom.Size()
	if len(ds.spare) < bins {
		ds.spare = make([]float64, max(bins, rowChunk/bins*bins))
	}
	row := ds.spare[:bins:bins]
	ds.spare = ds.spare[bins:]
	return row
}

// CheckAppend runs Append's checks on counts without appending anything:
// it returns the error Append(nil, counts...) would return on the
// dataset as it is now. A restore stages with it and applies with
// Append, which nothing can refuse in between while no writer runs.
func (ds *Dataset) CheckAppend(counts ...[]int) error {
	return ds.checkBatch(ds.cur.Load(), counts)
}

// checkBatch validates counts as a batch appended to v: every load fits
// the domain, holds no negative count, and the batch keeps the dataset
// within MaxRows.
func (ds *Dataset) checkBatch(v *view, counts [][]int) error {
	first, total := len(v.sums)-1, v.sums[len(v.sums)-1]
	for i, c := range counts {
		if c == nil {
			continue
		}
		n, err := ds.check(first+i, c, total)
		if err != nil {
			return err
		}
		total += n
	}
	return nil
}

// check validates counts as a load into partition p of a dataset holding
// total rows, and returns the load's row count.
func (ds *Dataset) check(p int, counts []int, total int) (int, error) {
	if len(counts) != ds.dom.Size() {
		return 0, fmt.Errorf("dataset: load into partition %d has %d bins, domain has %d", p, len(counts), ds.dom.Size())
	}
	n := 0
	for bin, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("dataset: load into partition %d has negative count %d at bin %d", p, c, bin)
		}
		if c > MaxRows-total-n {
			return 0, fmt.Errorf("dataset: load into partition %d would take the dataset past %d rows", p, MaxRows)
		}
		n += c
	}
	return n, nil
}

// BulkLoad adds per-bin row counts to partition p of a dataset no cache
// reads yet: it builds the prefix rows past p afresh and publishes them,
// so a load costs O((parts−p)·bins). A served dataset (Serve) refuses it,
// as it refuses any load that fails Append's checks; a refused load
// changes nothing.
func (ds *Dataset) BulkLoad(p int, counts []int) error {
	ds.writeMu.Lock()
	defer ds.writeMu.Unlock()
	v := ds.cur.Load()
	if p < 0 || p+1 >= len(v.sums) {
		return fmt.Errorf("dataset: partition %d out of range [0,%d)", p, len(v.sums)-1)
	}
	if ds.served {
		return fmt.Errorf("dataset: partition %d is served: a served dataset only grows by Append", p)
	}
	n, err := ds.check(p, counts, v.sums[len(v.sums)-1])
	if err != nil {
		return err
	}
	next := &view{sums: make([]int, len(v.sums)), cum: make([][]float64, len(v.cum))}
	copy(next.sums, v.sums[:p+1])
	copy(next.cum, v.cum[:p+1])
	for r := p + 1; r < len(v.cum); r++ {
		next.sums[r] = v.sums[r] + n
		row := make([]float64, len(counts))
		for b, c := range counts {
			row[b] = v.cum[r][b] + float64(c)
		}
		next.cum[r] = row
	}
	ds.cur.Store(next)
	return nil
}

// Domain returns the dataset's domain.
func (ds *Dataset) Domain() *domain.Domain { return ds.dom }

// PartitionCounts returns a copy of partition p's per-bin row counts.
func (ds *Dataset) PartitionCounts(p int) []int {
	v := ds.cur.Load()
	lo, hi := v.cum[p], v.cum[p+1]
	out := make([]int, len(hi))
	for b := range out {
		out[b] = int(hi[b] - lo[b])
	}
	return out
}

// Partitions returns the current number of partitions.
func (ds *Dataset) Partitions() int { return len(ds.cur.Load().sums) - 1 }

// NRows returns the public total row count of partitions [start, end] —
// the planner's hot-path accessor, one view load and one subtraction.
func (ds *Dataset) NRows(start, end int) (int, error) {
	return ds.cur.Load().window(start, end)
}

// NRowsAll returns the public total row count.
func (ds *Dataset) NRowsAll() int {
	v := ds.cur.Load()
	return v.sums[len(v.sums)-1]
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
// count, so the DP executor scales its noise without a second metadata
// read. Evaluation is a gather-sum over q's resolved support on the
// window's bounding prefix rows, the lower one skipped for windows that
// start at partition 0 (vector.go).
func (ds *Dataset) TrueFractionN(q *query.Query, start, end int) (float64, int, error) {
	v := ds.cur.Load()
	n, err := v.window(start, end)
	if err != nil || n == 0 {
		return 0, 0, err
	}
	matched := float64(n)
	if q.SupportSize() < ds.dom.Size() {
		bins := q.ResolvedSupport().Bins()
		matched = supportSum(bins, v.cum[end+1])
		if start > 0 {
			matched -= supportSum(bins, v.cum[start])
		}
	}
	return matched / float64(n), n, nil
}

// TrueDistribution returns the normalized distribution over bins of
// partitions [start, end] — the ground-truth p that the convergence
// metrics compare histograms against. The returned slice is freshly
// allocated.
func (ds *Dataset) TrueDistribution(start, end int) ([]float64, error) {
	v := ds.cur.Load()
	n, err := v.window(start, end)
	if err != nil {
		return nil, err
	}
	lo, hi := v.cum[start], v.cum[end+1]
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
