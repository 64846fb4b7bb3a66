// The vectorized predicate-evaluation engine: bitset indexes over the
// encoded domain plus a version-invalidated window-aggregate cache, so the
// miss path — the paper's runtime frontier once the exact cache cannot
// answer (Fig. 11d) — evaluates a conjunctive predicate as word-wide AND +
// masked sum instead of query.Eval's per-bin membership walk.
//
// Three observations make this fast:
//
//  1. The bins selected by "attribute i = v" depend only on the domain's
//     encoding, never on the data: they form arithmetic runs of length
//     Stride(i). One []uint64 word-mask per attribute value, built lazily
//     on first use, turns any conjunction into OR-of-values per attribute
//     then AND across attributes. Combined predicate masks — plus, for
//     all but the densest predicates, the mask's set bits extracted as a
//     flat gather list — are memoized by the query's canonical key, so
//     steady-state evaluation is a gather-sum over the support instead of
//     a scan of every mask word.
//  2. A query over partitions [s,e] needs only the window's summed count
//     vector (linearity: q·Σh = Σq·h). The window-aggregate cache keeps
//     that vector per window, stamped with the window's data version, so a
//     k-partition window costs one masked sum instead of k predicate
//     walks. Ingestion bumps the version and the next query rebuilds —
//     this is the piece of the index that data changes invalidate.
//  3. For tiny predicates a sparse walk of the support beats touching
//     every mask word; the crossover picks per query by support size. The
//     walk here is an iterative odometer (no recursion, no closure), so
//     neither branch allocates on the steady state.
//
// Correctness is pinned by property tests asserting bin-for-bin equality
// with the pre-engine per-partition query.Eval walk (the oracle in
// bitindex_test.go) on randomized domains, predicates, and ingestion
// histories; the benchmarks there time the engine against that walk.

package dataset

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/query"
)

const (
	// maxPredMasks bounds the memoized combined predicate masks (random
	// eviction, like the exact cache's fast map: a decode-skipping layer,
	// not the source of truth).
	maxPredMasks = 4096
	// sparseCrossoverWords is the support-size crossover: predicates with
	// support < sparseCrossoverWords × (domain words) take the sparse
	// odometer walk, everything else the masked sum. Below the threshold
	// the walk touches fewer cache lines than the mask scan would.
	sparseCrossoverWords = 2
	// maxOdoAttrs bounds the odometer's stack arrays; domains with more
	// attributes fall back to query.Eval (none of the paper's do).
	maxOdoAttrs = 12
	// maxAggBins caps the total bins resident across cached window
	// aggregates (~16 MiB of float64 at the cap); insertion evicts
	// arbitrary windows until under budget.
	maxAggBins = 1 << 21
)

// bitIndex holds the lazily-built per-attribute-value bitset masks of one
// domain and the memoized combined predicate masks. Masks depend only on
// the domain encoding (immutable for the life of a Dataset), so they are
// never invalidated; data-version invalidation lives in the
// window-aggregate cache.
type bitIndex struct {
	dom   *domain.Domain
	words int

	mu    sync.RWMutex
	attr  [][][]uint64 // attr[i][v] = mask over bins with Value(bin,i)==v
	preds map[string]predEntry

	// Memo telemetry for the combined predicate masks, surfaced through
	// Dataset.MaskStats → Session.StoreStats → /schema: how often the
	// batch plane (and the singleton miss path) reuses a shared mask
	// versus paying a rebuild, and how much the maxPredMasks cap churns.
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// predEntry is one memoized predicate: the combined conjunction mask and,
// when the support is no more than half the domain (bounding the memo's
// extra memory), its set bits as an ascending gather list.
type predEntry struct {
	mask []uint64
	bins []int32
}

func newBitIndex(dom *domain.Domain) *bitIndex {
	return &bitIndex{
		dom:   dom,
		words: (dom.Size() + 63) / 64,
		attr:  make([][][]uint64, dom.NumAttrs()),
		preds: make(map[string]predEntry),
	}
}

// setRange sets mask bits [lo, hi).
func setRange(mask []uint64, lo, hi int) {
	for lo < hi {
		w := lo >> 6
		b := lo & 63
		run := 64 - b
		if run > hi-lo {
			run = hi - lo
		}
		mask[w] |= (^uint64(0) >> (64 - run)) << b
		lo += run
	}
}

// attrMask returns (building lazily) the mask of bins whose attribute i
// equals v. Bins with value v form runs of length Stride(i) repeating every
// Stride(i)×Card(i).
func (ix *bitIndex) attrMask(i, v int) []uint64 {
	ix.mu.RLock()
	vals := ix.attr[i]
	var m []uint64
	if vals != nil {
		m = vals[v]
	}
	ix.mu.RUnlock()
	if m != nil {
		return m
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.attr[i] == nil {
		ix.attr[i] = make([][]uint64, ix.dom.Card(i))
	}
	if m = ix.attr[i][v]; m != nil {
		return m
	}
	m = make([]uint64, ix.words)
	stride := ix.dom.Stride(i)
	period := stride * ix.dom.Card(i)
	for base := v * stride; base < ix.dom.Size(); base += period {
		setRange(m, base, base+stride)
	}
	ix.attr[i][v] = m
	return m
}

// predicate returns (memoized by canonical key) the combined mask of bins
// satisfying q's conjunction, with its gather list when dense enough to
// skip but sparse enough to store.
func (ix *bitIndex) predicate(q *query.Query) predEntry {
	key := q.Key()
	ix.mu.RLock()
	m, ok := ix.preds[key]
	ix.mu.RUnlock()
	if ok {
		ix.hits.Add(1)
		return m
	}
	ix.misses.Add(1)
	mask := make([]uint64, ix.words)
	first := true
	for i := 0; i < ix.dom.NumAttrs(); i++ {
		vals := q.Allowed(i)
		if vals == nil {
			continue
		}
		if first {
			for _, v := range vals {
				am := ix.attrMask(i, v)
				for w := range mask {
					mask[w] |= am[w]
				}
			}
			first = false
			continue
		}
		// AND with the OR of this attribute's value masks, built in a
		// scratch vector (predicate builds are amortized by memoization).
		or := make([]uint64, ix.words)
		for _, v := range vals {
			am := ix.attrMask(i, v)
			for w := range or {
				or[w] |= am[w]
			}
		}
		for w := range mask {
			mask[w] &= or[w]
		}
	}
	if first { // unconstrained predicate: every bin
		setRange(mask, 0, ix.dom.Size())
	}
	entry := predEntry{mask: mask}
	if ss := q.SupportSize(); ss*2 <= ix.dom.Size() {
		bins := make([]int32, 0, ss)
		for w, word := range mask {
			base := int32(w) << 6
			for word != 0 {
				bins = append(bins, base+int32(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		entry.bins = bins
	}
	ix.mu.Lock()
	if len(ix.preds) >= maxPredMasks {
		for victim := range ix.preds {
			delete(ix.preds, victim)
			ix.evictions.Add(1)
			break
		}
	}
	ix.preds[key] = entry
	ix.mu.Unlock()
	return entry
}

// maskedSum computes Σ counts[bin] over the mask's set bits: the
// vectorized inner product replacing the per-bin membership walk. The
// reduction runs four independent accumulator chains so dense masks are
// not serialized on floating-point add latency; count vectors hold
// integer-valued float64s well inside the 53-bit mantissa, so the sum is
// exact under any association.
func maskedSum(mask []uint64, counts []float64) float64 {
	var s0, s1, s2, s3 float64
	for w, word := range mask {
		if word == 0 {
			continue
		}
		base := w << 6
		for word != 0 {
			s0 += counts[base+bits.TrailingZeros64(word)]
			word &= word - 1
			if word == 0 {
				break
			}
			s1 += counts[base+bits.TrailingZeros64(word)]
			word &= word - 1
			if word == 0 {
				break
			}
			s2 += counts[base+bits.TrailingZeros64(word)]
			word &= word - 1
			if word == 0 {
				break
			}
			s3 += counts[base+bits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// sparseSum walks q's support over vec with an iterative odometer — the
// allocation-free replacement for query.Eval's recursive closure walk,
// used below the crossover where the support is smaller than the mask.
func sparseSum(q *query.Query, vec []float64) float64 {
	d := q.Domain()
	n := d.NumAttrs()
	if n > maxOdoAttrs {
		return q.Eval(vec)
	}
	var (
		cnt     [maxOdoAttrs]int   // option count per attribute
		cur     [maxOdoAttrs]int   // current option index per attribute
		strides [maxOdoAttrs]int   // attribute stride
		allowed [maxOdoAttrs][]int // nil = unconstrained
	)
	base := 0
	for i := 0; i < n; i++ {
		strides[i] = d.Stride(i)
		allowed[i] = q.Allowed(i)
		if allowed[i] != nil {
			cnt[i] = len(allowed[i])
			base += allowed[i][0] * strides[i]
		} else {
			cnt[i] = d.Card(i)
		}
	}
	offset := func(i, j int) int {
		if allowed[i] != nil {
			return allowed[i][j] * strides[i]
		}
		return j * strides[i]
	}
	sum := 0.0
	for {
		sum += vec[base]
		i := n - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] < cnt[i] {
				base += offset(i, cur[i]) - offset(i, cur[i]-1)
				break
			}
			base -= offset(i, cur[i]-1) - offset(i, 0)
			cur[i] = 0
		}
		if i < 0 {
			return sum
		}
	}
}

// supportSum computes Σ vec[bin] over a memoized gather list: four
// independent accumulator chains, exact for the integer-valued count
// vectors under any association.
func supportSum(bins []int32, vec []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(bins); i += 4 {
		b := bins[i : i+4 : i+4]
		s0 += vec[b[0]]
		s1 += vec[b[1]]
		s2 += vec[b[2]]
		s3 += vec[b[3]]
	}
	for ; i < len(bins); i++ {
		s0 += vec[bins[i]]
	}
	return (s0 + s1) + (s2 + s3)
}

// evalVec evaluates q's matched count over one count vector: the sparse
// odometer walk below the crossover (no memo entry needed), the memoized
// gather list when one is stored, and the masked sum for the densest
// predicates whose gather list would cost more memory than it saves.
func (ix *bitIndex) evalVec(q *query.Query, vec []float64) float64 {
	if q.SupportSize() < sparseCrossoverWords*ix.words {
		return sparseSum(q, vec)
	}
	e := ix.predicate(q)
	if e.bins != nil {
		return supportSum(e.bins, vec)
	}
	return maskedSum(e.mask, vec)
}

// winAgg is one cached window aggregate: the summed count vector of
// partitions [start, end] stamped with the window's data version.
type winAgg struct {
	version int
	rows    int
	counts  []float64
}

// aggKey packs a window into the aggregate cache's map key.
func aggKey(start, end int) int64 { return int64(start)<<32 | int64(end) }

// windowAgg returns the aggregate for [start, end] at the current data
// version, rebuilding (and caching) it when the version moved. The caller
// has validated the range.
func (ds *Dataset) windowAgg(start, end, version int) *winAgg {
	key := aggKey(start, end)
	ds.aggMu.RLock()
	a := ds.aggs[key]
	ds.aggMu.RUnlock()
	if a != nil && a.version == version {
		return a
	}
	// Rebuild under the dataset read lock so the vector, row count, and
	// version stamp are one consistent snapshot.
	ds.mu.RLock()
	counts := make([]float64, ds.dom.Size())
	rows, ver := 0, 0
	for i := start; i <= end; i++ {
		p := ds.parts[i]
		for b, c := range p.counts {
			counts[b] += c
		}
		rows += p.n
		ver += p.version
	}
	ds.mu.RUnlock()
	a = &winAgg{version: ver, rows: rows, counts: counts}
	ds.aggMu.Lock()
	if ds.aggBins+len(counts) > maxAggBins {
		for k, old := range ds.aggs {
			delete(ds.aggs, k)
			ds.aggBins -= len(old.counts)
			if ds.aggBins+len(counts) <= maxAggBins {
				break
			}
		}
	}
	if old := ds.aggs[key]; old != nil {
		ds.aggBins -= len(old.counts)
	}
	ds.aggs[key] = a
	ds.aggBins += len(counts)
	ds.aggMu.Unlock()
	return a
}
