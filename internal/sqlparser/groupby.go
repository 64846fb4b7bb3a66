// GROUP BY support: the paper's CitiBike pool is built by decomposing
// analyst GROUP BY queries into one primitive counting query per group
// (§6.1). This file implements that decomposition at the parser level, so
// analysts can issue the original statement and receive per-group results
// each answered through Turbo.

package sqlparser

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/query"
)

// GroupedStatement is a parsed GROUP BY query: a base predicate plus the
// grouping attributes, decomposed into one primitive query per group.
type GroupedStatement struct {
	Table   string
	GroupBy []int // attribute indices, in declaration order
	// Groups lists every value combination with its primitive query,
	// enumerated in row-major order over the grouped attributes.
	Groups []Group
}

// Group is one GROUP BY cell.
type Group struct {
	Values []int // one value per GroupBy attribute
	Query  *query.Query
}

// ParseGrouped parses a statement that may carry a trailing
// `GROUP BY col {, col}` clause: ParseGroupedInto, then a Build per cell.
// Statements without GROUP BY return a single group with the base query.
func (p *Parser) ParseGrouped(src string) (*GroupedStatement, error) {
	var b query.Builder
	table, groupBy, err := p.ParseGroupedInto(src, &b, nil)
	if err != nil {
		return nil, err
	}
	gs := &GroupedStatement{Table: table, GroupBy: groupBy}
	for c := range p.Cells(groupBy) {
		cell, vals := p.Cell(&b, groupBy, c, nil)
		q, err := cell.Build()
		if err != nil {
			return nil, err
		}
		gs.Groups = append(gs.Groups, Group{Values: vals, Query: q})
	}
	return gs, nil
}

// ParseGroupedInto walks a statement that may carry a trailing GROUP BY
// clause: the statement under the clause into b, as ParseInto does, and
// the grouped attributes, in declaration order, appended to groupBy[:0].
// It returns the table and the attributes, or ParseGrouped's error, and
// allocates nothing for a statement it accepts; Cell then gives each
// cell's builder.
func (p *Parser) ParseGroupedInto(src string, b *query.Builder, groupBy []int) (table string, attrs []int, err error) {
	base, clause, err := splitGroupBy(src)
	if err != nil {
		return "", groupBy, err
	}
	if table, err = p.ParseInto(base, b); err == nil {
		err = b.Err()
	}
	if err != nil {
		return "", groupBy, err
	}
	attrs = groupBy[:0]
	for rest, more := clause, clause != ""; more; {
		var col string
		col, rest, more = strings.Cut(rest, ",")
		col = strings.TrimSpace(col)
		attr := p.dom.AttrIndex(col)
		switch {
		case attr < 0:
			return "", attrs, fmt.Errorf("sqlparser: unknown GROUP BY column %q", col)
		case b.Constrains(attr):
			return "", attrs, fmt.Errorf("sqlparser: GROUP BY column %q also constrained in WHERE", col)
		case slices.Contains(attrs, attr):
			return "", attrs, fmt.Errorf("sqlparser: GROUP BY column %q named twice", col)
		}
		attrs = append(attrs, attr)
	}
	return table, attrs, nil
}

// Cells returns how many cells grouping by attrs makes: the product of
// their cardinalities, 1 for none.
func (p *Parser) Cells(attrs []int) int {
	n := 1
	for _, a := range attrs {
		n *= p.dom.Card(a)
	}
	return n
}

// Cell returns base restricted to cell c of the grouping by attrs, the
// cells enumerated in row-major order over the attributes, and appends
// the cell's values, one per attribute, to vals. base and attrs are
// ParseGroupedInto's; base is left as it was.
func (p *Parser) Cell(base *query.Builder, attrs []int, c int, vals []int) (query.Builder, []int) {
	cell := base.Copy()
	n := len(vals)
	vals = slices.Grow(vals, len(attrs))[:n+len(attrs)]
	for j := len(attrs) - 1; j >= 0; j-- {
		card := p.dom.Card(attrs[j])
		vals[n+j] = c % card
		c /= card
		cell.Restrict(attrs[j], vals[n+j])
	}
	return cell, vals
}

// splitGroupBy slices a trailing GROUP BY clause off the statement,
// returning the statement under it and the clause's column list, "" when
// there is no clause. The case-insensitive search must index the
// original string directly: strings.ToUpper can change byte length for
// non-ASCII input, so an index computed on the upper-cased copy may not
// be valid in src (found by FuzzParseGrouped).
func splitGroupBy(src string) (base, clause string, err error) {
	idx := lastIndexFold(src, "GROUP BY")
	if idx < 0 {
		return src, "", nil
	}
	clause = strings.TrimSpace(src[idx+len("GROUP BY"):])
	clause = strings.TrimSuffix(clause, ";")
	if clause == "" {
		return "", "", fmt.Errorf("sqlparser: empty GROUP BY clause")
	}
	for rest, more := clause, true; more; {
		var col string
		col, rest, more = strings.Cut(rest, ",")
		if strings.TrimSpace(col) == "" {
			return "", "", fmt.Errorf("sqlparser: empty GROUP BY column")
		}
	}
	return src[:idx], clause, nil
}

// lastIndexFold finds the last case-insensitive occurrence of an ASCII
// pattern, returning a byte offset valid in s.
func lastIndexFold(s, pat string) int {
	for i := len(s) - len(pat); i >= 0; i-- {
		if strings.EqualFold(s[i:i+len(pat)], pat) {
			return i
		}
	}
	return -1
}
