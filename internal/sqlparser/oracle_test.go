// The lexer and recursive-descent parser Parser.Parse first ran, kept
// verbatim (identifiers prefixed "oracle", with their own token kinds) as
// the reference the one-pass parser is checked against in
// differential_test.go, the fuzz targets and TestParseIntoOutpacesOracle:
// per-byte unicode.Is* calls, a fresh []token per statement, punctuation
// as string(c).

package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/domain"
	"repro/internal/query"
)

// tokenKind classifies the oracle lexer's output.
type tokenKind uint8

const (
	oracleEOF tokenKind = iota
	oracleIdent
	oracleNumber
	oracleString
	oraclePunct // ( ) , = * ;
)

type oracleToken struct {
	kind tokenKind
	text string
	pos  int
}

// oracleLexer tokenizes a SQL string. SQL keywords are case-insensitive
// identifiers; we canonicalize to upper case during matching but preserve
// original text for error messages.
type oracleLexer struct {
	src    string
	pos    int
	tokens []oracleToken
}

func oracleLex(src string) ([]oracleToken, error) {
	l := &oracleLexer{src: src}
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		switch {
		case unicode.IsSpace(c):
			l.pos++
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '*' || c == ';':
			l.tokens = append(l.tokens, oracleToken{oraclePunct, string(c), l.pos})
			l.pos++
		case c == '\'' || c == '"':
			if err := l.lexString(byte(c)); err != nil {
				return nil, err
			}
		case unicode.IsDigit(c) || c == '-':
			l.lexNumber()
		case unicode.IsLetter(c) || c == '_':
			l.lexIdent()
		default:
			return nil, fmt.Errorf("sqlparser: unexpected character %q at %d", c, l.pos)
		}
	}
	l.tokens = append(l.tokens, oracleToken{oracleEOF, "", l.pos})
	return l.tokens, nil
}

func (l *oracleLexer) lexString(quote byte) error {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) && l.src[l.pos] != quote {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return fmt.Errorf("sqlparser: unterminated string starting at %d", start)
	}
	l.tokens = append(l.tokens, oracleToken{oracleString, l.src[start+1 : l.pos], start})
	l.pos++ // closing quote
	return nil
}

func (l *oracleLexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.') {
		l.pos++
	}
	l.tokens = append(l.tokens, oracleToken{oracleNumber, l.src[start:l.pos], start})
}

func (l *oracleLexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' && c != '-' {
			break
		}
		l.pos++
	}
	l.tokens = append(l.tokens, oracleToken{oracleIdent, l.src[start:l.pos], start})
}

// isKeyword matches an identifier token case-insensitively.
func (t oracleToken) isKeyword(kw string) bool {
	return t.kind == oracleIdent && strings.EqualFold(t.text, kw)
}

// oracleParse is the former Parser.Parse.
func oracleParse(p *Parser, src string) (*Statement, error) {
	tokens, err := oracleLex(src)
	if err != nil {
		return nil, err
	}
	s := &oracleState{tokens: tokens, dom: p.dom, timeAttr: p.TimeAttr}
	return s.parseQuery()
}

type oracleState struct {
	tokens   []oracleToken
	i        int
	dom      *domain.Domain
	timeAttr string
}

func (s *oracleState) peek() oracleToken { return s.tokens[s.i] }

func (s *oracleState) next() oracleToken {
	t := s.tokens[s.i]
	if t.kind != oracleEOF {
		s.i++
	}
	return t
}

func (s *oracleState) expectKeyword(kw string) error {
	t := s.next()
	if !t.isKeyword(kw) {
		return fmt.Errorf("sqlparser: expected %s at %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (s *oracleState) expectPunct(p string) error {
	t := s.next()
	if t.kind != oraclePunct || t.text != p {
		return fmt.Errorf("sqlparser: expected %q at %d, got %q", p, t.pos, t.text)
	}
	return nil
}

func (s *oracleState) parseQuery() (*Statement, error) {
	if err := s.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := s.expectKeyword("COUNT"); err != nil {
		return nil, fmt.Errorf("%w (turbo-sql supports COUNT(*) only; other aggregates fail over to the host engine)", err)
	}
	if err := s.expectPunct("("); err != nil {
		return nil, err
	}
	if err := s.expectPunct("*"); err != nil {
		return nil, err
	}
	if err := s.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := s.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl := s.next()
	if tbl.kind != oracleIdent {
		return nil, fmt.Errorf("sqlparser: expected table name at %d, got %q", tbl.pos, tbl.text)
	}

	b := query.NewBuilder(s.dom)
	if s.peek().isKeyword("WHERE") {
		s.next()
		if err := s.parseConjunction(b); err != nil {
			return nil, err
		}
	}
	if s.peek().kind == oraclePunct && s.peek().text == ";" {
		s.next()
	}
	if t := s.peek(); t.kind != oracleEOF {
		if t.isKeyword("OR") {
			return nil, fmt.Errorf("sqlparser: OR at %d: turbo-sql supports conjunctive predicates only", t.pos)
		}
		if t.isKeyword("GROUP") {
			return nil, fmt.Errorf("sqlparser: GROUP BY at %d: decompose into primitive queries first", t.pos)
		}
		return nil, fmt.Errorf("sqlparser: trailing input at %d: %q", t.pos, t.text)
	}
	q, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Statement{Table: tbl.text, Query: q}, nil
}

func (s *oracleState) parseConjunction(b *query.Builder) error {
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

func (s *oracleState) parsePredicate(b *query.Builder) error {
	col := s.next()
	if col.kind != oracleIdent {
		return fmt.Errorf("sqlparser: expected column at %d, got %q", col.pos, col.text)
	}
	if strings.EqualFold(col.text, s.timeAttr) {
		return s.parseTimeWindow(b)
	}
	attr := s.dom.AttrIndex(col.text)
	if attr < 0 {
		return fmt.Errorf("sqlparser: unknown column %q at %d", col.text, col.pos)
	}
	t := s.next()
	switch {
	case t.kind == oraclePunct && t.text == "=":
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
		var vals []int
		for {
			v, err := s.parseValue(attr)
			if err != nil {
				return err
			}
			vals = append(vals, v)
			n := s.next()
			if n.kind == oraclePunct && n.text == "," {
				continue
			}
			if n.kind == oraclePunct && n.text == ")" {
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

func (s *oracleState) parseTimeWindow(b *query.Builder) error {
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

func (s *oracleState) parseInt() (int, error) {
	t := s.next()
	if t.kind != oracleNumber {
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
func (s *oracleState) parseValue(attr int) (int, error) {
	t := s.next()
	switch t.kind {
	case oracleNumber:
		v, err := strconv.Atoi(t.text)
		if err != nil {
			return 0, fmt.Errorf("sqlparser: bad value %q at %d", t.text, t.pos)
		}
		if v < 0 || v >= s.dom.Card(attr) {
			return 0, fmt.Errorf("sqlparser: value %d out of range for %q (card %d)",
				v, s.dom.Attr(attr).Name, s.dom.Card(attr))
		}
		return v, nil
	case oracleString, oracleIdent:
		v := s.dom.LevelValue(attr, t.text)
		if v < 0 {
			return 0, fmt.Errorf("sqlparser: unknown level %q for column %q at %d",
				t.text, s.dom.Attr(attr).Name, t.pos)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("sqlparser: expected value at %d, got %q", t.pos, t.text)
	}
}
