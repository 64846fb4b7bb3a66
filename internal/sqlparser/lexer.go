// Package sqlparser is turbo-sql (§5): the linear-SQL grammar that
// turbo-server's POST /query, /query/batch and /groupby accept. It takes
// counting queries with conjunctive predicates over categorical
// attributes and an optional time window, e.g.
//
//	SELECT COUNT(*) FROM covid WHERE positive = 1 AND age IN (0, 1)
//	    AND time BETWEEN 2 AND 5
//
// The parser produces a query.Query (plus window) ready for a Turbo
// session. Aggregates other than COUNT(*), disjunctions, joins and nested
// queries are rejected with descriptive errors — those queries fail over
// to the host DP engine in a real integration (the "fail-to-Tumult"
// approach of §5).
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) , = * ;
)

// token is one lexeme; text is a substring of the statement. Keywords are
// identifiers matched with case folded; text keeps the original spelling.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// Byte classes. The lexer has always classified byte b as rune(b), so bytes
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

// lex appends src's tokens, closed by a tokEOF, to tokens.
func lex(src string, tokens []token) ([]token, error) {
	for pos := 0; pos < len(src); {
		c := src[pos]
		start := pos
		switch cls := classes[c]; {
		case cls&clsSpace != 0:
			pos++
			continue
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '*' || c == ';':
			pos++
			tokens = append(tokens, token{tokPunct, src[start:pos], start})
		case c == '\'' || c == '"':
			end := strings.IndexByte(src[start+1:], c)
			if end < 0 {
				return nil, fmt.Errorf("sqlparser: unterminated string starting at %d", start)
			}
			pos = start + 1 + end + 1
			tokens = append(tokens, token{tokString, src[start+1 : pos-1], start})
		case cls&clsNumStart != 0:
			pos++
			for pos < len(src) && classes[src[pos]]&clsNum != 0 {
				pos++
			}
			tokens = append(tokens, token{tokNumber, src[start:pos], start})
		case cls&clsIdentStart != 0:
			pos++
			for pos < len(src) && classes[src[pos]]&clsIdent != 0 {
				pos++
			}
			tokens = append(tokens, token{tokIdent, src[start:pos], start})
		default:
			return nil, fmt.Errorf("sqlparser: unexpected character %q at %d", rune(c), start)
		}
	}
	return append(tokens, token{tokEOF, "", len(src)}), nil
}

// isKeyword matches an identifier token case-insensitively.
func (t token) isKeyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
