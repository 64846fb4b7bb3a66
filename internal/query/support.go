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
func (q *Query) Resolve(s *Support) {
	if cap(s.bins) < q.support {
		s.bins = make([]int32, 0, q.support)
	}
	s.bins = s.bins[:0]

	d := q.dom
	n := d.NumAttrs()
	// Iterative odometer over the attributes' allowed-value lists, in the
	// same lexicographic order as ForEachBin's recursion. pos[i] is the
	// index into attribute i's choice list; base is the current bin.
	var posBuf [maxResolveAttrs]int
	if n > maxResolveAttrs {
		// Domains beyond the odometer's depth fall back to the recursive
		// walk; order is identical either way.
		q.ForEachBin(func(bin int) { s.bins = append(s.bins, int32(bin)) })
		return
	}
	pos := posBuf[:n]
	valueAt := func(attr, j int) int {
		if vals := q.allowed[attr]; vals != nil {
			return vals[j]
		}
		return j
	}
	choices := func(attr int) int {
		if vals := q.allowed[attr]; vals != nil {
			return len(vals)
		}
		return d.Card(attr)
	}
	base := 0
	for i := 0; i < n; i++ {
		base += valueAt(i, 0) * d.Stride(i)
	}
	for {
		s.bins = append(s.bins, int32(base))
		i := n - 1
		for i >= 0 {
			pos[i]++
			if pos[i] < choices(i) {
				base += (valueAt(i, pos[i]) - valueAt(i, pos[i]-1)) * d.Stride(i)
				break
			}
			base -= (valueAt(i, pos[i]-1) - valueAt(i, 0)) * d.Stride(i)
			pos[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// maxResolveAttrs bounds the iterative odometer's depth; wider domains
// (none exist in the repo's workloads) resolve through ForEachBin.
const maxResolveAttrs = 24

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
