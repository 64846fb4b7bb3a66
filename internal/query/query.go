// Package query represents the linear counting queries Turbo supports and
// evaluates them against histograms and raw count vectors.
//
// A linear query (§4.1 of the paper) is a function q: X → [0,1]; Turbo's
// evaluated artifact supports predicate counting queries, where q(v) ∈ {0,1}
// and the query returns the fraction of database rows whose value satisfies
// the predicate. We represent the predicate as a conjunction over
// attributes: for each attribute, a set of allowed values (nil meaning "any
// value"). This captures every query in the paper's Covid pool (all
// combinations of value subsets per attribute) and the CitiBike pool
// (GROUP BY decompositions into primitive conjunctions).
//
// A query may additionally carry a half-open time window of partitions
// [Start, End] for the partitioned use cases (§4.4); the window is not part
// of the predicate and is ignored by predicate evaluation.
package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/domain"
)

// Query is an immutable linear counting query over a domain. Construct with
// New or the Builder; the zero value matches everything on a nil domain and
// is not useful.
type Query struct {
	dom *domain.Domain
	// allowed[i] is the sorted set of permitted values for attribute i;
	// a nil slice means the attribute is unconstrained.
	allowed [][]int
	// window of partitions this query requests, inclusive. A query on a
	// non-partitioned database uses the zero window {0, 0} with HasWindow
	// false.
	start, end int
	hasWindow  bool
	key        string
	// winKey is the precomputed KeyWithWindow value. Queries are immutable,
	// so both keys are materialized at construction time: Key and
	// KeyWithWindow sit on the exact-hit path of every cache probe, and a
	// per-probe fmt.Sprintf would be the hit path's only allocation.
	winKey  string
	support int
	// supMemo caches the resolved Support (see ResolvedSupport). The
	// pointer is shared by every WithWindow clone, so the
	// predicate is resolved at most once across all windowed copies.
	supMemo *supportMemo
}

// New builds a query over dom. allowed maps attribute index → permitted
// values; attributes absent from the map are unconstrained. Values are
// validated against the domain.
func New(dom *domain.Domain, allowed map[int][]int) (*Query, error) {
	sets := make([][]int, dom.NumAttrs())
	for i, vals := range allowed {
		if i < 0 || i >= dom.NumAttrs() {
			return nil, fmt.Errorf("query: attribute index %d out of range", i)
		}
		sets[i] = append(make([]int, 0, len(vals)), vals...)
	}
	return build(dom, sets, 0, 0, false)
}

// build is the one constructor behind New and Builder.Build. sets is
// indexed by attribute: nil leaves it unconstrained, a non-nil set (an
// empty one is an error) constrains it. The query takes over sets and
// every value set in it, sorting those in place; the caller has checked
// the window, if there is one.
func build(dom *domain.Domain, sets [][]int, start, end int, window bool) (*Query, error) {
	for i, set := range sets {
		if set == nil {
			continue
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("query: empty value set for attribute %q", dom.Attr(i).Name)
		}
		if !sort.IntsAreSorted(set) {
			sort.Ints(set)
		}
		prev := -1
		for _, v := range set {
			if v < 0 || v >= dom.Card(i) {
				return nil, fmt.Errorf("query: value %d out of range for attribute %q (card %d)",
					v, dom.Attr(i).Name, dom.Card(i))
			}
			if v == prev {
				return nil, fmt.Errorf("query: duplicate value %d for attribute %q", v, dom.Attr(i).Name)
			}
			prev = v
		}
		if len(set) == dom.Card(i) {
			sets[i] = nil // full set ≡ unconstrained
		}
	}
	q := &Query{dom: dom, allowed: sets, start: start, end: end, hasWindow: window, supMemo: new(supportMemo)}
	q.finish()
	return q, nil
}

// MustNew is New for statically-known queries; it panics on error.
func MustNew(dom *domain.Domain, allowed map[int][]int) *Query {
	q, err := New(dom, allowed)
	if err != nil {
		panic(err)
	}
	return q
}

// finish computes the support size and the canonical keys, rendered into
// one buffer: a query's predicate key is the suffix of its winKey after
// the window header, and the two share one allocation.
func (q *Query) finish() {
	b := make([]byte, 0, 64) // on the stack; longer keys spill
	b = appendWindow(b, q.start, q.end, q.hasWindow)
	n := len(b)
	q.support = 1
	for i, vals := range q.allowed {
		card := q.dom.Card(i)
		if vals == nil {
			q.support *= card
		} else {
			q.support *= len(vals)
		}
		b = appendSet(b, vals, card)
	}
	q.winKey = string(b)
	q.key = q.winKey[n:]
}

// Keys are packed bytes, canonical for one domain. The window header comes
// first: windowMark, then start and end as uvarints, or noWindowMark alone.
// One value set per attribute follows: a ⌈card/8⌉-byte bitset (bit v%8 of
// byte v/8 for each allowed v, all of them when unconstrained), or above
// maxBitsetCard a uvarint count (0 when unconstrained) and each ascending
// value's uvarint gap from the one before. A full set is unconstrained
// (build), and each piece's length is fixed by the domain or its own
// prefix, so two keys are equal exactly when predicates and windows are.
const (
	noWindowMark  = 0
	windowMark    = 1
	maxBitsetCard = 64
)

// appendWindow appends the window header of a key.
func appendWindow(dst []byte, start, end int, window bool) []byte {
	if !window {
		return append(dst, noWindowMark)
	}
	dst = binary.AppendUvarint(append(dst, windowMark), uint64(start))
	return binary.AppendUvarint(dst, uint64(end))
}

// appendSet appends one attribute's value set to a key; nil is
// unconstrained.
func appendSet(dst []byte, vals []int, card int) []byte {
	if card > maxBitsetCard {
		dst = binary.AppendUvarint(dst, uint64(len(vals)))
		prev := -1
		for _, v := range vals {
			dst = binary.AppendUvarint(dst, uint64(v-prev-1))
			prev = v
		}
		return dst
	}
	dst = append(dst, make([]byte, (card+7)/8)...)
	set := dst[len(dst)-(card+7)/8:]
	for v := 0; vals == nil && v < card; v++ {
		set[v>>3] |= 1 << (v & 7)
	}
	for _, v := range vals {
		set[v>>3] |= 1 << (v & 7)
	}
	return dst
}

// KeyWindow decodes the window header of a KeyWithWindow key: the window
// and true for a windowed key, false for one without a window. It needs no
// domain — the header comes first — so a store's keys route by window
// start before anything knows their predicate. A key that does not open
// with a well-formed header, or has nothing after it, is an error.
func KeyWindow(key string) (start, end int, windowed bool, err error) {
	if len(key) > 1 && key[0] == noWindowMark {
		return 0, 0, false, nil
	}
	if len(key) > 1 && key[0] == windowMark {
		if s, n := binary.Uvarint([]byte(key[1:])); n > 0 {
			e, m := binary.Uvarint([]byte(key[1+n:]))
			if m > 0 && s <= e && e <= math.MaxInt32 && len(key) > 1+n+m {
				return int(s), int(e), true, nil
			}
		}
	}
	return 0, 0, false, fmt.Errorf("query: key %q has no window header and predicate", key)
}

// WithWindow returns a copy of q requesting partitions [start, end]
// inclusive. It panics if start > end or start < 0: windows come from
// validated parse results or workload generators.
func (q *Query) WithWindow(start, end int) *Query {
	if start < 0 || start > end {
		panic(fmt.Sprintf("query: bad window [%d,%d]", start, end))
	}
	c := *q
	c.start, c.end, c.hasWindow = start, end, true
	c.winKey = string(append(appendWindow(make([]byte, 0, 64), start, end, true), q.key...))
	return &c
}

// Domain returns the domain the query is defined over.
func (q *Query) Domain() *domain.Domain { return q.dom }

// Window returns the requested partition range and whether one is set.
func (q *Query) Window() (start, end int, ok bool) { return q.start, q.end, q.hasWindow }

// Key returns a canonical identifier for the predicate (window excluded):
// the packed value sets KeyWithWindow ends with. Two queries over one
// domain with equal keys select exactly the same bins.
func (q *Query) Key() string { return q.key }

// KeyWithWindow returns a canonical identifier including the window (or
// its absence), the key every cache stores a release under. The string is
// precomputed, so calling it on the cache-probe hot path allocates nothing.
func (q *Query) KeyWithWindow() string { return q.winKey }

// SupportSize returns the number of domain points with q(v) = 1.
func (q *Query) SupportSize() int { return q.support }

// Allowed returns the permitted values for attribute i, or nil when the
// attribute is unconstrained. The returned slice must not be modified.
func (q *Query) Allowed(i int) []int { return q.allowed[i] }

// ForEachBin calls fn with every bin index in the query's support, in
// increasing order. Evaluation cost is O(SupportSize), independent of N.
func (q *Query) ForEachBin(fn func(bin int)) {
	d := q.dom
	n := d.NumAttrs()
	// vals[i] holds the value choices for attribute i (expanded for
	// unconstrained attributes only logically, via cardinality).
	var rec func(attr, base int)
	rec = func(attr, base int) {
		if attr == n {
			fn(base)
			return
		}
		stride := d.Stride(attr)
		if vals := q.allowed[attr]; vals != nil {
			for _, v := range vals {
				rec(attr+1, base+v*stride)
			}
			return
		}
		card := d.Card(attr)
		for v := 0; v < card; v++ {
			rec(attr+1, base+v*stride)
		}
	}
	rec(0, 0)
}

// Eval computes q·h = Σ_{v: q(v)=1} h(v) for a flat vector h indexed by bin.
// When h is a normalized histogram this is the estimated result fraction;
// when h is a raw count vector the caller divides by n.
func (q *Query) Eval(h []float64) float64 {
	if len(h) != q.dom.Size() {
		panic(fmt.Sprintf("query: Eval got vector of length %d for domain size %d", len(h), q.dom.Size()))
	}
	sum := 0.0
	q.ForEachBin(func(bin int) { sum += h[bin] })
	return sum
}

// String renders the predicate with attribute and level names.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("COUNT WHERE ")
	wrote := false
	for i, vals := range q.allowed {
		if vals == nil {
			continue
		}
		if wrote {
			b.WriteString(" AND ")
		}
		wrote = true
		b.WriteString(q.dom.Attr(i).Name)
		if len(vals) == 1 {
			fmt.Fprintf(&b, "=%s", q.dom.LevelName(i, vals[0]))
			continue
		}
		b.WriteString(" IN (")
		for j, v := range vals {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(q.dom.LevelName(i, v))
		}
		b.WriteByte(')')
	}
	if !wrote {
		b.WriteString("TRUE")
	}
	if q.hasWindow {
		fmt.Fprintf(&b, " AND time BETWEEN %d AND %d", q.start, q.end)
	}
	return b.String()
}

// Builder assembles a query incrementally, useful for parsers and workload
// generators.
type Builder struct {
	dom *domain.Domain
	// allowed[i] is attribute i's value set so far: nil until the first
	// Restrict names the attribute, non-nil (possibly empty) after.
	allowed [][]int
	start   int
	end     int
	window  bool
	err     error
}

// NewBuilder starts a builder over dom.
func NewBuilder(dom *domain.Domain) *Builder {
	return &Builder{dom: dom, allowed: make([][]int, dom.NumAttrs())}
}

// Restrict constrains attribute attr to vals. Repeated calls on the same
// attribute intersect the sets.
func (b *Builder) Restrict(attr int, vals ...int) *Builder {
	if b.err != nil {
		return b
	}
	if attr < 0 || attr >= b.dom.NumAttrs() {
		b.err = fmt.Errorf("query: attribute index %d out of range", attr)
		return b
	}
	if prev := b.allowed[attr]; prev != nil {
		// intersect returns a fresh slice: a query built earlier keeps prev.
		b.allowed[attr] = intersect(prev, vals)
		if len(b.allowed[attr]) == 0 {
			b.err = fmt.Errorf("query: contradictory constraints on %q", b.dom.Attr(attr).Name)
		}
		return b
	}
	b.allowed[attr] = append(make([]int, 0, len(vals)), vals...)
	return b
}

// Window sets the partition window [start, end] inclusive.
func (b *Builder) Window(start, end int) *Builder {
	if b.err == nil && (start < 0 || start > end) {
		b.err = fmt.Errorf("query: bad window [%d,%d]", start, end)
		return b
	}
	b.start, b.end, b.window = start, end, true
	return b
}

// Build finalizes the query. The query shares the builder's value sets
// (sorted in place on the first Build, read-only from then on) and owns
// everything else, so building twice yields equal, independent queries.
func (b *Builder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	return build(b.dom, append([][]int(nil), b.allowed...), b.start, b.end, b.window)
}

func intersect(a, b []int) []int {
	set := make(map[int]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	out := a[:0:0]
	for _, v := range a {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}
