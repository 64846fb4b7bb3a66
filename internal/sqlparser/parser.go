// Package sqlparser is turbo-sql (§5): the linear-SQL grammar that
// turbo-server's POST /query, /query/batch and /groupby accept. It takes
// counting queries with conjunctive predicates over categorical
// attributes and an optional time window, e.g.
//
//	SELECT COUNT(*) FROM covid WHERE positive = 1 AND age IN (0, 1)
//	    AND time BETWEEN 2 AND 5
//
// The grammar, walked by recursive descent:
//
//	query    := SELECT COUNT ( * ) FROM ident [WHERE conj] [;]
//	conj     := pred {AND pred}
//	pred     := ident = value
//	          | ident IN ( value {, value} )
//	          | TIME BETWEEN number AND number
//	value    := number | string (level name)
//
// A statement is read once: each token is matched in place as the
// grammar reaches it and written into a query.Builder. Aggregates other
// than COUNT(*), disjunctions, joins and nested queries are rejected with
// descriptive errors — those queries fail over to the host DP engine in a
// real integration (the "fail-to-Tumult" approach of §5).
package sqlparser

import (
	"fmt"
	"math"
	"strings"
	"unicode"

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
	b.Reset(p.dom)
	s := scan{src: src, p: p}
	if table, err = s.statement(b); err == nil {
		return table, nil
	}
	// A lexical error wins wherever it stands, even past the grammar
	// error: the walk stopped at a token's end, and reads on for one.
	for i := s.i; i < len(src); {
		var lexErr error
		if _, i, lexErr = token(src, i); lexErr != nil {
			return "", lexErr
		}
	}
	return "", err
}

// Byte classes. A byte b has always been classified as rune(b), so bytes
// past 0x7F follow Latin-1 — 0xE9 is a letter, 0x85 and 0xA0 are spaces —
// and classes records exactly those answers.
const (
	clsSpace      uint8 = 1 << iota
	clsNumStart         // digit, '-'
	clsNum              // digit, '.'
	clsIdentStart       // letter, '_'
	clsIdent            // letter, digit, '_', '-'
)

var classes = func() (t [256]uint8) {
	for b := range t {
		c := rune(b)
		if unicode.IsSpace(c) {
			t[b] |= clsSpace
		}
		if unicode.IsDigit(c) {
			t[b] |= clsNumStart | clsNum | clsIdent
		}
		if unicode.IsLetter(c) {
			t[b] |= clsIdentStart | clsIdent
		}
	}
	t['-'] |= clsNumStart | clsIdent
	t['.'] |= clsNum
	t['_'] |= clsIdentStart | clsIdent
	return t
}()

// space returns the offset of the first byte at or past i that is not a
// space.
func space(src string, i int) int {
	// The usual gap, one ' ' or none, is decided without the table.
	if i < len(src) && src[i] == ' ' {
		i++
	}
	for i < len(src) && classes[src[i]]&clsSpace != 0 {
		i++
	}
	return i
}

// number scans the number token at src[i], a digit or '-', and returns
// its end, its value and whether strconv.Atoi takes its text: an optional
// '-', then digits alone, of a value that fits an int.
func number(src string, i int) (end, v int, ok bool) {
	digits := i
	if src[i] == '-' {
		digits++
	}
	u, ok := uint64(0), true
	for end = digits; end < len(src) && classes[src[end]]&clsNum != 0; end++ {
		switch d := uint64(src[end] - '0'); {
		case d > 9, u > (math.MaxUint64-9)/10: // '.', or past any int
			ok = false
		default:
			u = u*10 + d
		}
	}
	limit, v := uint64(math.MaxInt), int(u)
	if src[i] == '-' {
		limit, v = limit+1, -v
	}
	return end, v, ok && end > digits && u <= limit
}

// identifier returns the end of the identifier token at src[i], a letter
// or '_'.
func identifier(src string, i int) int {
	end := i + 1
	for end < len(src) && classes[src[end]]&clsIdent != 0 {
		end++
	}
	return end
}

// token lexes the token at or past src[i] for an error to name: its text
// (a string's without its quotes, "" at the end) and its end, or the
// lexical error at it.
func token(src string, i int) (text string, next int, err error) {
	i = space(src, i)
	if i == len(src) {
		return "", i, nil
	}
	c, end := src[i], i+1
	switch cls := classes[c]; {
	case strings.IndexByte("(),=*;", c) >= 0:
	case c == '\'' || c == '"':
		n := strings.IndexByte(src[end:], c)
		if n < 0 {
			return "", i, fmt.Errorf("sqlparser: unterminated string starting at %d", i)
		}
		return src[end : end+n], end + n + 1, nil
	case cls&clsNumStart != 0:
		end, _, _ = number(src, i)
	case cls&clsIdentStart != 0:
		end = identifier(src, i)
	default:
		return "", i, fmt.Errorf("sqlparser: unexpected character %q at %d", rune(c), i)
	}
	return src[i:end], end, nil
}

// scan is one statement's walk, on ParseInto's frame: i is always a
// token's end. The builder is passed apart: an error's text leaks the
// statement to the heap, and a builder held beside it would go with it.
type scan struct {
	src string
	i   int
	p   *Parser
}

// expected is the error that want was expected at the token at s.i.
func (s *scan) expected(want string) error {
	pos := space(s.src, s.i)
	text, _, _ := token(s.src, pos)
	return fmt.Errorf("sqlparser: expected %s at %d, got %q", want, pos, text)
}

// keyword reads the identifier kw, an upper-case ASCII keyword, in any
// case, and reports whether it did. Its ASCII fold is strings.EqualFold:
// the runes past ASCII that fold to ASCII letters, ſ and K, go on with
// bytes that end an identifier (TestNoIdentifierFoldsToASCII).
func (s *scan) keyword(kw string) bool {
	src := s.src
	i := space(src, s.i)
	end := i + len(kw)
	if end > len(src) || end < len(src) && classes[src[end]]&clsIdent != 0 {
		return false
	}
	for j := 0; j < len(kw); j++ {
		if src[i+j]&^0x20 != kw[j] {
			return false
		}
	}
	s.i = end
	return true
}

// punct reads the punctuation c and reports whether it did.
func (s *scan) punct(c byte) bool {
	i := space(s.src, s.i)
	if i < len(s.src) && s.src[i] == c {
		s.i = i + 1
		return true
	}
	return false
}

// ident reads an identifier, or returns "".
func (s *scan) ident() string {
	i := space(s.src, s.i)
	if i == len(s.src) || classes[s.src[i]]&clsIdentStart == 0 {
		return ""
	}
	s.i = identifier(s.src, i)
	return s.src[i:s.i]
}

func (s *scan) statement(b *query.Builder) (string, error) {
	if !s.keyword("SELECT") {
		return "", s.expected("SELECT")
	}
	if !s.keyword("COUNT") {
		return "", fmt.Errorf("%w (turbo-sql supports COUNT(*) only; other aggregates fail over to the host engine)", s.expected("COUNT"))
	}
	for _, p := range [...]string{`"("`, `"*"`, `")"`} {
		if !s.punct(p[1]) {
			return "", s.expected(p)
		}
	}
	if !s.keyword("FROM") {
		return "", s.expected("FROM")
	}
	table := s.ident()
	if table == "" {
		return "", s.expected("table name")
	}
	if s.keyword("WHERE") {
		for more := true; more; more = s.keyword("AND") {
			if err := s.predicate(b); err != nil {
				return "", err
			}
		}
	}
	s.punct(';')
	pos := space(s.src, s.i)
	switch {
	case pos == len(s.src):
		return table, nil
	case s.keyword("OR"):
		return "", fmt.Errorf("sqlparser: OR at %d: turbo-sql supports conjunctive predicates only", pos)
	case s.keyword("GROUP"):
		return "", fmt.Errorf("sqlparser: GROUP BY at %d: decompose into primitive queries first", pos)
	}
	text, _, _ := token(s.src, pos)
	return "", fmt.Errorf("sqlparser: trailing input at %d: %q", pos, text)
}

func (s *scan) predicate(b *query.Builder) error {
	col := s.ident()
	if col == "" {
		return s.expected("column")
	}
	if strings.EqualFold(col, s.p.TimeAttr) {
		return s.window(b)
	}
	attr := s.p.dom.AttrIndex(col)
	if attr < 0 {
		return fmt.Errorf("sqlparser: unknown column %q at %d", col, s.i-len(col))
	}
	switch {
	case s.punct('='):
		v, err := s.value(attr)
		if err == nil {
			b.Restrict(attr, v)
		}
		return err
	case s.keyword("IN"):
		if !s.punct('(') {
			return s.expected(`"("`)
		}
		vals := make([]int, 0, 16) // on the stack until Restrict copies it
		for more := true; more; more = s.punct(',') {
			v, err := s.value(attr)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		if !s.punct(')') {
			return s.expected(", or )")
		}
		b.Restrict(attr, vals...)
		return nil
	}
	return fmt.Errorf("sqlparser: expected = or IN after %q at %d (ranges and inequalities are not linear predicates over categorical attributes)", col, space(s.src, s.i))
}

func (s *scan) window(b *query.Builder) error {
	var bounds [2]int
	for i, kw := range [...]string{"BETWEEN", "AND"} {
		if !s.keyword(kw) {
			return s.expected(kw)
		}
		at := space(s.src, s.i)
		if at == len(s.src) || classes[s.src[at]]&clsNumStart == 0 {
			return s.expected("number")
		}
		end, v, ok := number(s.src, at)
		if !ok {
			return fmt.Errorf("sqlparser: bad integer %q at %d", s.src[at:end], at)
		}
		bounds[i], s.i = v, end
	}
	b.Window(bounds[0], bounds[1])
	return nil
}

// value reads a numeric value or a quoted/bare level name for the
// attribute.
func (s *scan) value(attr int) (int, error) {
	src, dom := s.src, s.p.dom
	i := space(src, s.i)
	// The usual value, one digit, skips number's general walk.
	if i+1 < len(src) && classes[src[i+1]]&clsNum == 0 {
		if d := int(src[i]) - '0'; 0 <= d && d <= 9 && d < dom.Card(attr) {
			s.i = i + 1
			return d, nil
		}
	}
	c := byte(0)
	if i < len(src) {
		c = src[i]
	}
	switch {
	case classes[c]&clsNumStart != 0:
		end, v, ok := number(src, i)
		if !ok {
			return 0, fmt.Errorf("sqlparser: bad value %q at %d", src[i:end], i)
		}
		if v < 0 || v >= dom.Card(attr) {
			return 0, fmt.Errorf("sqlparser: value %d out of range for %q (card %d)",
				v, dom.Attr(attr).Name, dom.Card(attr))
		}
		s.i = end
		return v, nil
	case c == '\'' || c == '"' || classes[c]&clsIdentStart != 0:
		text, end, err := token(src, i)
		if err != nil {
			return 0, err
		}
		v := dom.LevelValue(attr, text)
		if v < 0 {
			return 0, fmt.Errorf("sqlparser: unknown level %q for column %q at %d",
				text, dom.Attr(attr).Name, i)
		}
		s.i = end
		return v, nil
	}
	return 0, s.expected("value")
}
