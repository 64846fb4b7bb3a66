// Package domain models the data domain X of a differentially-private
// database as a finite product of categorical attributes.
//
// Following §4.1 of the Turbo paper, a database x with n rows over domain X
// can be represented as a histogram h ∈ N^X where h(v) counts the rows equal
// to v. This package provides the indexing scheme that maps attribute value
// tuples to dense bin indices in [0, N) with N = |X|, so that histograms can
// be stored as flat vectors and linear queries can be evaluated by iterating
// bins.
//
// Attribute values are small non-negative integers; callers that have named
// categories (e.g. age brackets) register them as Attribute levels and use
// Level lookups for presentation.
package domain

import (
	"errors"
	"fmt"
	"strings"
)

// Attribute is one categorical column of the domain, with a name and a fixed
// cardinality. Level names are optional; when present they must cover the
// whole cardinality and are used only for parsing and display.
type Attribute struct {
	Name   string
	Card   int      // number of distinct values, ≥ 1
	Levels []string // optional human-readable names, len == Card when set
}

// Domain is an ordered product of attributes. The zero value is unusable;
// construct with New.
type Domain struct {
	attrs   []Attribute
	strides []int // strides[i] = product of Card of attrs[i+1:]
	size    int   // N = |X|
	index   map[string]int
}

// ErrBadAttribute reports an invalid attribute specification.
var ErrBadAttribute = errors.New("domain: bad attribute")

// New builds a domain from the given attributes. Attribute names must be
// unique and non-empty, and every cardinality must be at least 1. The total
// domain size must fit in an int.
func New(attrs ...Attribute) (*Domain, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrBadAttribute)
	}
	d := &Domain{
		attrs:   make([]Attribute, len(attrs)),
		strides: make([]int, len(attrs)),
		size:    1,
		index:   make(map[string]int, len(attrs)),
	}
	copy(d.attrs, attrs)
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("%w: attribute %d has empty name", ErrBadAttribute, i)
		}
		if a.Card < 1 {
			return nil, fmt.Errorf("%w: attribute %q has cardinality %d", ErrBadAttribute, a.Name, a.Card)
		}
		if a.Levels != nil && len(a.Levels) != a.Card {
			return nil, fmt.Errorf("%w: attribute %q has %d levels for cardinality %d",
				ErrBadAttribute, a.Name, len(a.Levels), a.Card)
		}
		if _, dup := d.index[a.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate attribute %q", ErrBadAttribute, a.Name)
		}
		d.index[a.Name] = i
		if d.size > (1<<62)/a.Card {
			return nil, fmt.Errorf("%w: domain size overflow", ErrBadAttribute)
		}
		d.size *= a.Card
	}
	stride := 1
	for i := len(attrs) - 1; i >= 0; i-- {
		d.strides[i] = stride
		stride *= attrs[i].Card
	}
	return d, nil
}

// MustNew is New for statically-known domains; it panics on error.
func MustNew(attrs ...Attribute) *Domain {
	d, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return d
}

// Size returns N = |X|, the number of points in the domain.
func (d *Domain) Size() int { return d.size }

// NumAttrs returns the number of attributes d was built from.
func (d *Domain) NumAttrs() int { return len(d.attrs) }

// Attr returns the i-th attribute.
func (d *Domain) Attr(i int) Attribute { return d.attrs[i] }

// AttrIndex returns the position of the named attribute, or -1.
func (d *Domain) AttrIndex(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	return -1
}

// Card returns the cardinality of attribute i.
func (d *Domain) Card(i int) int { return d.attrs[i].Card }

// Stride returns the bin-index stride of attribute i: changing attribute i
// by one moves the encoded index by Stride(i).
func (d *Domain) Stride(i int) int { return d.strides[i] }

// Encode maps an attribute-value tuple to its dense bin index. It panics if
// the tuple length or any value is out of range, since callers construct
// tuples from already-validated queries and data.
func (d *Domain) Encode(tuple []int) int {
	if len(tuple) != len(d.attrs) {
		panic(fmt.Sprintf("domain: Encode got %d values for %d attributes", len(tuple), len(d.attrs)))
	}
	idx := 0
	for i, v := range tuple {
		if v < 0 || v >= d.attrs[i].Card {
			panic(fmt.Sprintf("domain: value %d out of range for attribute %q (card %d)",
				v, d.attrs[i].Name, d.attrs[i].Card))
		}
		idx += v * d.strides[i]
	}
	return idx
}

// Value returns the value of attribute attr at bin index idx without
// materializing the full tuple.
func (d *Domain) Value(idx, attr int) int {
	return (idx / d.strides[attr]) % d.attrs[attr].Card
}

// LevelName returns the display name for value v of attribute i, falling
// back to the decimal value when no levels are registered.
func (d *Domain) LevelName(i, v int) string {
	a := d.attrs[i]
	if a.Levels != nil && v >= 0 && v < len(a.Levels) {
		return a.Levels[v]
	}
	return fmt.Sprintf("%d", v)
}

// LevelValue resolves a level name (or decimal string) for attribute i to
// its value, returning -1 when unknown.
func (d *Domain) LevelValue(i int, name string) int {
	a := d.attrs[i]
	for v, lv := range a.Levels {
		if strings.EqualFold(lv, name) {
			return v
		}
	}
	var v int
	if _, err := fmt.Sscanf(name, "%d", &v); err == nil && v >= 0 && v < a.Card {
		return v
	}
	return -1
}

// String describes the domain, e.g. "positive(2)×age(4)×gender(2)×ethnicity(8) N=128".
func (d *Domain) String() string {
	var b strings.Builder
	for i, a := range d.attrs {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%s(%d)", a.Name, a.Card)
	}
	fmt.Fprintf(&b, " N=%d", d.size)
	return b.String()
}

// Equal reports whether two domains have identical attribute names and
// cardinalities (levels are ignored: they are presentation only).
func (d *Domain) Equal(o *Domain) bool {
	if d == o {
		return true
	}
	if o == nil || len(d.attrs) != len(o.attrs) {
		return false
	}
	for i := range d.attrs {
		if d.attrs[i].Name != o.attrs[i].Name || d.attrs[i].Card != o.attrs[i].Card {
			return false
		}
	}
	return true
}
