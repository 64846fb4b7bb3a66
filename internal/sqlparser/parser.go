// Recursive-descent parser for the turbo-sql grammar:
//
//	query    := SELECT COUNT ( * ) FROM ident [WHERE conj] [;]
//	conj     := pred {AND pred}
//	pred     := ident = value
//	          | ident IN ( value {, value} )
//	          | TIME BETWEEN number AND number
//	value    := number | string (level name)

package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/domain"
	"repro/internal/query"
)

// Statement is a parsed turbo-sql query.
type Statement struct {
	Table string
	Query *query.Query
}

// Parser parses statements against a fixed schema.
type Parser struct {
	dom *domain.Domain
	// TimeAttr is the reserved window column name; "time" by default.
	TimeAttr string
}

// New creates a parser over the given domain.
func New(dom *domain.Domain) *Parser {
	return &Parser{dom: dom, TimeAttr: "time"}
}

// Parse parses one statement: ParseInto, then Build.
func (p *Parser) Parse(src string) (*Statement, error) {
	var b query.Builder
	table, err := p.ParseInto(src, &b)
	if err != nil {
		return nil, err
	}
	q, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Statement{Table: table, Query: q}, nil
}

// ParseInto walks one statement into b, which it first resets over the
// parser's domain, and returns the table the statement names, a
// substring of src. It allocates nothing for a statement it accepts, so
// a caller renders the statement's cache key (b.AppendKey) before any
// query exists, and builds one (b.Build) only on a miss. b.AppendKey and
// b.Build return the error Parse returns for a statement ParseInto
// accepts and Parse does not.
func (p *Parser) ParseInto(src string, b *query.Builder) (table string, err error) {
	// A usual statement's tokens fit buf, on this frame; a longer one
	// moves to the heap through lex's append.
	b.Reset(p.dom)
	var buf [64]token
	tokens, err := lex(src, buf[:0])
	if err != nil {
		return "", err
	}
	s := state{tokens: tokens, p: p}
	return s.parseQuery(b)
}

// state is one parse in progress, on Parse's frame like the tokens it
// walks. It reaches the schema through p and holds no pointer of its own
// that outlives the parse, which is what lets both stay off the heap.
type state struct {
	tokens []token
	i      int
	p      *Parser
}

func (s *state) peek() token { return s.tokens[s.i] }

func (s *state) next() token {
	t := s.tokens[s.i]
	if t.kind != tokEOF {
		s.i++
	}
	return t
}

func (s *state) expectKeyword(kw string) error {
	t := s.next()
	if !t.isKeyword(kw) {
		return fmt.Errorf("sqlparser: expected %s at %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (s *state) expectPunct(p string) error {
	t := s.next()
	if t.kind != tokPunct || t.text != p {
		return fmt.Errorf("sqlparser: expected %q at %d, got %q", p, t.pos, t.text)
	}
	return nil
}

func (s *state) parseQuery(b *query.Builder) (string, error) {
	if err := s.expectKeyword("SELECT"); err != nil {
		return "", err
	}
	if err := s.expectKeyword("COUNT"); err != nil {
		return "", fmt.Errorf("%w (turbo-sql supports COUNT(*) only; other aggregates fail over to the host engine)", err)
	}
	if err := s.expectPunct("("); err != nil {
		return "", err
	}
	if err := s.expectPunct("*"); err != nil {
		return "", err
	}
	if err := s.expectPunct(")"); err != nil {
		return "", err
	}
	if err := s.expectKeyword("FROM"); err != nil {
		return "", err
	}
	tbl := s.next()
	if tbl.kind != tokIdent {
		return "", fmt.Errorf("sqlparser: expected table name at %d, got %q", tbl.pos, tbl.text)
	}

	if s.peek().isKeyword("WHERE") {
		s.next()
		if err := s.parseConjunction(b); err != nil {
			return "", err
		}
	}
	if s.peek().kind == tokPunct && s.peek().text == ";" {
		s.next()
	}
	if t := s.peek(); t.kind != tokEOF {
		if t.isKeyword("OR") {
			return "", fmt.Errorf("sqlparser: OR at %d: turbo-sql supports conjunctive predicates only", t.pos)
		}
		if t.isKeyword("GROUP") {
			return "", fmt.Errorf("sqlparser: GROUP BY at %d: decompose into primitive queries first", t.pos)
		}
		return "", fmt.Errorf("sqlparser: trailing input at %d: %q", t.pos, t.text)
	}
	return tbl.text, nil
}

func (s *state) parseConjunction(b *query.Builder) error {
	for {
		if err := s.parsePredicate(b); err != nil {
			return err
		}
		if !s.peek().isKeyword("AND") {
			return nil
		}
		s.next()
	}
}

func (s *state) parsePredicate(b *query.Builder) error {
	col := s.next()
	if col.kind != tokIdent {
		return fmt.Errorf("sqlparser: expected column at %d, got %q", col.pos, col.text)
	}
	if strings.EqualFold(col.text, s.p.TimeAttr) {
		return s.parseTimeWindow(b)
	}
	attr := s.p.dom.AttrIndex(col.text)
	if attr < 0 {
		return fmt.Errorf("sqlparser: unknown column %q at %d", col.text, col.pos)
	}
	t := s.next()
	switch {
	case t.kind == tokPunct && t.text == "=":
		v, err := s.parseValue(attr)
		if err != nil {
			return err
		}
		b.Restrict(attr, v)
		return nil
	case t.isKeyword("IN"):
		if err := s.expectPunct("("); err != nil {
			return err
		}
		vals := make([]int, 0, 16) // on the stack until Restrict copies it
		for {
			v, err := s.parseValue(attr)
			if err != nil {
				return err
			}
			vals = append(vals, v)
			n := s.next()
			if n.kind == tokPunct && n.text == "," {
				continue
			}
			if n.kind == tokPunct && n.text == ")" {
				break
			}
			return fmt.Errorf("sqlparser: expected , or ) at %d, got %q", n.pos, n.text)
		}
		b.Restrict(attr, vals...)
		return nil
	default:
		return fmt.Errorf("sqlparser: expected = or IN after %q at %d (ranges and inequalities are not linear predicates over categorical attributes)", col.text, t.pos)
	}
}

func (s *state) parseTimeWindow(b *query.Builder) error {
	if err := s.expectKeyword("BETWEEN"); err != nil {
		return err
	}
	lo, err := s.parseInt()
	if err != nil {
		return err
	}
	if err := s.expectKeyword("AND"); err != nil {
		return err
	}
	hi, err := s.parseInt()
	if err != nil {
		return err
	}
	b.Window(lo, hi)
	return nil
}

func (s *state) parseInt() (int, error) {
	t := s.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqlparser: expected number at %d, got %q", t.pos, t.text)
	}
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("sqlparser: bad integer %q at %d", t.text, t.pos)
	}
	return v, nil
}

// parseValue accepts a numeric value or a quoted/bare level name for the
// attribute.
func (s *state) parseValue(attr int) (int, error) {
	t := s.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.Atoi(t.text)
		if err != nil {
			return 0, fmt.Errorf("sqlparser: bad value %q at %d", t.text, t.pos)
		}
		if v < 0 || v >= s.p.dom.Card(attr) {
			return 0, fmt.Errorf("sqlparser: value %d out of range for %q (card %d)",
				v, s.p.dom.Attr(attr).Name, s.p.dom.Card(attr))
		}
		return v, nil
	case tokString, tokIdent:
		v := s.p.dom.LevelValue(attr, t.text)
		if v < 0 {
			return 0, fmt.Errorf("sqlparser: unknown level %q for column %q at %d",
				t.text, s.p.dom.Attr(attr).Name, t.pos)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("sqlparser: expected value at %d, got %q", t.pos, t.text)
	}
}
