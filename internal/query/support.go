// Resolved predicate supports: the reusable sparse view of a query that
// internal/histogram's kernels iterate.
//
// A query's predicate selects a fixed set of domain bins. ForEachBin
// re-derives that set on every evaluation through a recursive walk; the
// same predicate is evaluated against a PMW histogram on every arrival,
// and against every node histogram of a tree split, so it resolves once
// into a Support — the ascending bin indices — memoized on the query, and
// every kernel then iterates a plain slice.

package query

import "sync"

// Support is the resolved support set of one predicate over one domain:
// the bin indices with q(v) = 1 in ascending order. A Support is a
// reusable buffer: Resolve overwrites it in place, growing the backing
// slice only until it reaches the domain's high-water mark, so a
// steady-state resolution allocates nothing.
//
// The index order is identical to ForEachBin's emission order (ascending:
// attribute strides are row-major and value sets are sorted), so a kernel
// walking Bins performs floating-point reductions in exactly the
// closure-walk order — the property the histogram oracle tests pin.
type Support struct {
	bins []int32
}

// Resolve fills s with q's support, reusing s's buffer. The previous
// contents are discarded.
//
// The support grows from the last attribute's values to the first
// attribute: with m bins resolved over the attributes after a, a's c-th
// value v makes block c of the next m·k, those m bins plus v·Stride(a),
// written last to first so block 0 changes in place after the others
// read it. Strides are row-major and value sets ascending, so each block
// lies above the one before and the order is ForEachBin's.
func (q *Query) Resolve(s *Support) {
	bins := s.bins[:0]
	if cap(bins) < q.support {
		bins = make([]int32, 0, q.support)
	}
	d := q.dom
	last := d.NumAttrs() - 1
	if vals := q.allowed[last]; vals != nil {
		for _, v := range vals {
			bins = append(bins, int32(v*d.Stride(last)))
		}
	} else {
		for v := range d.Card(last) {
			bins = append(bins, int32(v*d.Stride(last)))
		}
	}
	for a := last - 1; a >= 0; a-- {
		vals, k := q.allowed[a], d.Card(a)
		if vals != nil {
			k = len(vals)
		}
		m := len(bins)
		bins = bins[:m*k]
		for c := k - 1; c >= 0; c-- {
			v := c
			if vals != nil {
				v = vals[c]
			}
			off := int32(v * d.Stride(a))
			block := bins[c*m : (c+1)*m]
			for j, bin := range bins[:m] {
				block[j] = bin + off
			}
		}
	}
	s.bins = bins
}

// supportMemo is the once-per-predicate cache behind ResolvedSupport and
// the Support it resolves into. Every WithWindow clone shares it, so a
// predicate resolves once however many windowed copies run. BuildInto
// resets it, so a rebuilt query never serves its last predicate's support
// and resolves into the buffer that one grew.
type supportMemo struct {
	once sync.Once
	sup  Support
}

// reset empties m, keeping the buffer. No one may hold its support.
func (m *supportMemo) reset() {
	m.once = sync.Once{}
	m.sup.bins = m.sup.bins[:0]
}

// ResolvedSupport returns q's support, resolving and memoizing it on
// first use. The support depends only on the predicate and the domain,
// both immutable, so the memoized value is shared across every windowed
// clone of the query and must not be modified. Concurrent first calls
// wait for one resolution and return its value.
func (q *Query) ResolvedSupport() *Support {
	m := q.supMemo
	if m == nil {
		// Zero-value query (no constructor ran): resolve uncached.
		s := new(Support)
		q.Resolve(s)
		return s
	}
	m.once.Do(func() { q.Resolve(&m.sup) })
	return &m.sup
}

// Bins returns the ascending support bin indices. Callers must not modify
// the slice; it is invalidated by the next Resolve.
func (s *Support) Bins() []int32 { return s.bins }
