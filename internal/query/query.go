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
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/domain"
)

// Query is an immutable linear counting query over a domain. Construct with
// New or the Builder; the zero value matches everything on a nil domain and
// is not useful.
// A query a caller rebuilds in place (Builder.BuildInto) is immutable
// only until its next build: it is never cloned, and nothing keeps it, its
// keys or its support past the request that built it.
type Query struct {
	dom *domain.Domain
	// allowed[i] is the sorted set of permitted values for attribute i;
	// a nil slice means the attribute is unconstrained. Every set views
	// vals, the one array that holds them.
	allowed [][]int
	vals    []int
	// window of partitions this query requests, inclusive. A query on a
	// non-partitioned database uses the zero window {0, 0} with HasWindow
	// false.
	start, end int
	hasWindow  bool
	key        string
	// winKey is the KeyWithWindow value, held from construction for every
	// cache fill and flight to name the query by; key is its suffix.
	winKey  string
	support int
	// supMemo caches the resolved Support (see ResolvedSupport). The
	// pointer is shared by every WithWindow clone, so the
	// predicate is resolved at most once across all windowed copies.
	supMemo *supportMemo
}

// New builds a query over dom. allowed maps attribute index → permitted
// values; attributes absent from the map are unconstrained. Values are
// validated against the domain, as Build validates them.
func New(dom *domain.Domain, allowed map[int][]int) (*Query, error) {
	b := NewBuilder(dom)
	for i, vals := range allowed {
		b.Restrict(i, vals...)
	}
	return b.Build()
}

// MustNew is New for statically-known queries; it panics on error.
func MustNew(dom *domain.Domain, allowed map[int][]int) *Query {
	q, err := New(dom, allowed)
	if err != nil {
		panic(err)
	}
	return q
}

// Keys are packed bytes, canonical for one domain. The window header comes
// first: windowMark, then start and end as uvarints, or noWindowMark alone.
// One value set per attribute follows: a ⌈card/8⌉-byte bitset (bit v%8 of
// byte v/8 for each allowed v, all of them when unconstrained), or above
// maxBitsetCard a uvarint count (0 when unconstrained) and each ascending
// value's uvarint gap from the one before. A full set is unconstrained
// (Build), and each piece's length is fixed by the domain or its own
// prefix, so two keys are equal exactly when predicates and windows are.
// Builder.AppendKey is the one renderer: Build keeps what it renders,
// BuildInto what its caller rendered.
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

// KeyWindow decodes the window header of a KeyWithWindow key: the window
// and true for a windowed key, false for one without a window. It needs no
// domain — the header comes first — so a key is planned, or a snapshot's
// key checked, before anything knows its predicate. A key that does not
// open with a well-formed header, or has nothing after it, is an error.
func KeyWindow(key string) (start, end int, windowed bool, err error) {
	if len(key) > 1 && key[0] == noWindowMark {
		return 0, 0, false, nil
	}
	// The header, copied out: a conversion of the key would allocate. A
	// header read past the key's end reads more bytes than the key has.
	var head [1 + 2*binary.MaxVarintLen64]byte
	copy(head[:], key)
	if len(key) > 1 && key[0] == windowMark {
		if s, n := binary.Uvarint(head[1:]); n > 0 {
			e, m := binary.Uvarint(head[1+n:])
			if m > 0 && s <= e && e <= math.MaxInt && len(key) > 1+n+m {
				return int(s), int(e), true, nil
			}
		}
	}
	return 0, 0, false, fmt.Errorf("query: key %q has no window header and predicate", key)
}

// AppendWindowedKey appends to dst the KeyWithWindow key a windowless
// statement's key names once the statement is given the window
// [start, end] (WithWindow): the window's header in place of the
// windowless one. key must be windowless (KeyWindow).
func AppendWindowedKey(dst []byte, key string, start, end int) []byte {
	return append(appendWindow(dst, start, end, true), key[1:]...)
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

// Builder assembles a query incrementally, for parsers and workload
// generators. It is a value: the first maxBitsetAttrs attributes of at
// most maxBitsetCard values keep their value sets as bitsets inside it, so
// a Builder on its caller's stack parses a statement and renders its key
// (AppendKey) without the heap. Only a wider attribute, or one first
// restricted to a repeated or out-of-range value, keeps a heap list.
type Builder struct {
	dom *domain.Domain
	// bits[i] is attribute i's value set, bit v for value v, once named
	// has bit i.
	bits  [maxBitsetAttrs]uint64
	named uint64
	// lists[i] is the value set of a named attribute the bitsets do not
	// hold, as Restrict was given it (duplicates and out-of-range values
	// included, for Build to report). nil until such an attribute is
	// named.
	lists  [][]int
	start  int
	end    int
	window bool
	err    error
}

// maxBitsetAttrs is how many of a domain's attributes a Builder holds as
// bitsets. Served domains have at most eight.
const maxBitsetAttrs = 16

// NewBuilder starts a builder over dom.
func NewBuilder(dom *domain.Domain) *Builder { return &Builder{dom: dom} }

// Reset starts b over dom again, empty, as NewBuilder would: a caller that
// owns a Builder value reuses it this way.
func (b *Builder) Reset(dom *domain.Domain) { *b = Builder{dom: dom} }

// Restrict constrains attribute attr to vals. Repeated calls on the same
// attribute intersect the sets; an empty intersection is contradictory.
// Values are checked at Build: an empty set, or an out-of-range or
// repeated value that the intersections kept, is an error there.
func (b *Builder) Restrict(attr int, vals ...int) *Builder {
	if b.err != nil {
		return b
	}
	if attr < 0 || attr >= b.dom.NumAttrs() {
		b.err = fmt.Errorf("query: attribute index %d out of range", attr)
		return b
	}
	if prev := b.list(attr); prev != nil {
		b.lists[attr] = intersect(prev, vals)
		if len(b.lists[attr]) == 0 {
			b.err = fmt.Errorf("query: contradictory constraints on %q", b.dom.Attr(attr).Name)
		}
		return b
	}
	card := b.dom.Card(attr)
	set, distinct := bitsOf(vals, card)
	switch {
	case b.isNamed(attr):
		// Values the bitset cannot hold are in no earlier set either.
		if b.bits[attr] &= set; b.bits[attr] == 0 {
			b.err = fmt.Errorf("query: contradictory constraints on %q", b.dom.Attr(attr).Name)
		}
	case attr < maxBitsetAttrs && card <= maxBitsetCard && distinct:
		b.bits[attr], b.named = set, b.named|1<<attr
	default:
		if b.lists == nil {
			b.lists = make([][]int, b.dom.NumAttrs())
		}
		b.lists[attr] = append(make([]int, 0, len(vals)), vals...)
	}
	return b
}

// bitsOf returns the values of vals below card ≤ maxBitsetCard as a
// bitset, and whether vals held each of them once and nothing else.
func bitsOf(vals []int, card int) (set uint64, distinct bool) {
	if card > maxBitsetCard {
		return 0, false
	}
	distinct = true
	for _, v := range vals {
		if v < 0 || v >= card || set&(1<<v) != 0 {
			distinct = false
			continue
		}
		set |= 1 << v
	}
	return set, distinct
}

// isNamed reports whether attribute attr's set is in bits.
func (b *Builder) isNamed(attr int) bool {
	return attr < maxBitsetAttrs && b.named&(1<<attr) != 0
}

// list returns attribute attr's list, nil unless it has one.
func (b *Builder) list(attr int) []int {
	if b.lists == nil {
		return nil
	}
	return b.lists[attr]
}

// Copy returns a copy of b that Restrict and Window change without
// changing b. It allocates only when b holds a heap list.
func (b *Builder) Copy() Builder {
	c := *b
	if b.lists != nil {
		c.lists = slices.Clone(b.lists)
	}
	return c
}

// Window sets the partition window [start, end] inclusive. A second
// window intersects the first, as a repeated attribute does; windows that
// do not overlap are contradictory.
func (b *Builder) Window(start, end int) *Builder {
	switch {
	case b.err != nil:
	case start < 0 || start > end:
		b.err = fmt.Errorf("query: bad window [%d,%d]", start, end)
	case b.window && (start > b.end || end < b.start):
		b.err = fmt.Errorf("query: contradictory windows [%d,%d] and [%d,%d]", b.start, b.end, start, end)
	case b.window:
		b.start, b.end = max(b.start, start), min(b.end, end)
	default:
		b.start, b.end, b.window = start, end, true
	}
	return b
}

// check returns the error Build would: the first Restrict or Window error,
// else the first attribute, in order, whose set is empty or holds an
// out-of-range or repeated value. It sorts the lists in place.
func (b *Builder) check() error {
	if b.err != nil {
		return b.err
	}
	for i := 0; i < b.dom.NumAttrs(); i++ {
		vals := b.list(i)
		if (vals != nil && len(vals) == 0) || (b.isNamed(i) && b.bits[i] == 0) {
			return fmt.Errorf("query: empty value set for attribute %q", b.dom.Attr(i).Name)
		}
		if !sort.IntsAreSorted(vals) {
			sort.Ints(vals)
		}
		prev := -1
		for _, v := range vals {
			if v < 0 || v >= b.dom.Card(i) {
				return fmt.Errorf("query: value %d out of range for attribute %q (card %d)",
					v, b.dom.Attr(i).Name, b.dom.Card(i))
			}
			if v == prev {
				return fmt.Errorf("query: duplicate value %d for attribute %q", v, b.dom.Attr(i).Name)
			}
			prev = v
		}
	}
	return nil
}

// Err returns the error Build would return, allocating nothing when
// there is none.
func (b *Builder) Err() error { return b.check() }

// Constrains reports whether a builder whose Err is nil restricts
// attribute attr to fewer than all its values, that is whether the query
// it builds has a non-nil Allowed(attr).
func (b *Builder) Constrains(attr int) bool { return b.size(attr) < b.dom.Card(attr) }

// bitset returns attribute i's set, of card ≤ maxBitsetCard values, as a
// bitset: every value when it is unconstrained. b has passed check.
func (b *Builder) bitset(i int) uint64 {
	if vals := b.list(i); vals != nil {
		var set uint64
		for _, v := range vals {
			set |= 1 << v
		}
		return set
	}
	if b.isNamed(i) {
		return b.bits[i]
	}
	return 1<<b.dom.Card(i) - 1
}

// size returns how many values attribute i allows. b has passed check.
func (b *Builder) size(i int) int {
	if card := b.dom.Card(i); card > maxBitsetCard {
		if vals := b.list(i); vals != nil {
			return len(vals)
		}
		return card
	}
	return bits.OnesCount64(b.bitset(i))
}

// appendValues appends attribute i's allowed values to dst, ascending, or
// nothing when it is unconstrained or its set is full. b has passed check.
func (b *Builder) appendValues(dst []int, i int) []int {
	card := b.dom.Card(i)
	switch {
	case b.size(i) == card:
	case card > maxBitsetCard:
		dst = append(dst, b.list(i)...)
	default:
		for set := b.bitset(i); set != 0; set &= set - 1 {
			dst = append(dst, bits.TrailingZeros64(set))
		}
	}
	return dst
}

// AppendKey appends to dst the key of the query Build would return —
// its KeyWithWindow, byte for byte — or returns dst and Build's error.
// It allocates nothing unless dst must grow, so a statement is probed by
// its key before any query exists.
func (b *Builder) AppendKey(dst []byte) ([]byte, error) {
	if err := b.check(); err != nil {
		return dst, err
	}
	dst, _ = b.appendKey(dst)
	return dst, nil
}

// appendKey renders the key of a checked builder, returning where its
// predicate starts.
func (b *Builder) appendKey(dst []byte) ([]byte, int) {
	dst = appendWindow(dst, b.start, b.end, b.window)
	pred := len(dst)
	for i := 0; i < b.dom.NumAttrs(); i++ {
		card := b.dom.Card(i)
		if card <= maxBitsetCard {
			for v, set := 0, b.bitset(i); v < card; v += 8 {
				dst = append(dst, byte(set>>v))
			}
			continue
		}
		vals := b.list(i)
		if len(vals) == card {
			vals = nil // a full set is unconstrained
		}
		dst = binary.AppendUvarint(dst, uint64(len(vals)))
		prev := -1
		for _, v := range vals {
			dst = binary.AppendUvarint(dst, uint64(v-prev-1))
			prev = v
		}
	}
	return dst, pred
}

// Build finalizes the query. The query owns everything it holds, so the
// builder can be restricted further and built again.
func (b *Builder) Build() (*Query, error) {
	key, err := b.AppendKey(make([]byte, 0, 64)) // on the stack; a longer key moves to the heap
	if err != nil {
		return nil, err
	}
	q := new(Query)
	return q, b.BuildInto(q, string(key))
}

// BuildInto builds the query Build would return into q, which its caller
// owns and rebuilds, reusing q's arrays and support memo, so a rebuild
// allocates nothing once they have grown; or it returns Build's error.
// key is b's AppendKey rendering, which q keeps as its keys: it may view a
// buffer the caller leaves be while q is in use. q must not be a clone.
func (b *Builder) BuildInto(q *Query, key string) error {
	if err := b.check(); err != nil {
		return err
	}
	n := b.dom.NumAttrs()
	// One array holds every constrained set.
	total := 0
	for i := range n {
		if size := b.size(i); size < b.dom.Card(i) {
			total += size
		}
	}
	q.dom, q.start, q.end, q.hasWindow, q.support = b.dom, b.start, b.end, b.window, 1
	q.allowed = slices.Grow(q.allowed[:0], n)[:n]
	clear(q.allowed)
	q.vals = slices.Grow(q.vals[:0], total)
	for i := range n {
		q.support *= b.size(i)
		lo := len(q.vals)
		if q.vals = b.appendValues(q.vals, i); len(q.vals) > lo {
			q.allowed[i] = q.vals[lo:len(q.vals):len(q.vals)]
		}
	}
	var head [1 + 2*binary.MaxVarintLen64]byte
	q.winKey = key
	q.key = key[len(appendWindow(head[:0], b.start, b.end, b.window)):]
	if q.supMemo == nil {
		q.supMemo = new(supportMemo)
	} else {
		q.supMemo.reset()
	}
	return nil
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
