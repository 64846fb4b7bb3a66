package sqlparser

import (
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/domain"
)

func covid() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4, Levels: []string{"1-17", "18-49", "50-64", "65+"}},
		domain.Attribute{Name: "gender", Card: 2},
		domain.Attribute{Name: "ethnicity", Card: 8},
	)
}

func mustParse(t *testing.T, src string) *Statement {
	t.Helper()
	st, err := New(covid()).Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestBasicCount(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*) FROM covid")
	if st.Table != "covid" {
		t.Fatalf("table = %q", st.Table)
	}
	if st.Query.SupportSize() != 128 {
		t.Fatal("unconstrained query should select everything")
	}
}

func TestEqualityPredicate(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*) FROM covid WHERE positive = 1")
	if got := st.Query.Allowed(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Allowed(positive) = %v", got)
	}
}

func TestLevelNames(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*) FROM covid WHERE positive = 'positive' AND age = '65+'")
	if got := st.Query.Allowed(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Allowed(positive) = %v", got)
	}
	if got := st.Query.Allowed(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Allowed(age) = %v", got)
	}
	// Bare identifier levels work too.
	st = mustParse(t, "SELECT COUNT(*) FROM covid WHERE positive = negative")
	if got := st.Query.Allowed(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("bare level = %v", got)
	}
}

func TestInPredicate(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*) FROM covid WHERE age IN (0, 2, 3)")
	if got := st.Query.Allowed(1); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Allowed(age) = %v", got)
	}
}

func TestConjunction(t *testing.T) {
	st := mustParse(t, `SELECT COUNT(*) FROM covid
		WHERE positive = 1 AND age IN (0,1) AND ethnicity = 5`)
	q := st.Query
	if q.SupportSize() != 1*2*2*1 {
		t.Fatalf("SupportSize = %d", q.SupportSize())
	}
}

func TestTimeWindow(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*) FROM covid WHERE positive = 1 AND time BETWEEN 2 AND 5")
	s, e, ok := st.Query.Window()
	if !ok || s != 2 || e != 5 {
		t.Fatalf("window = %d,%d,%v", s, e, ok)
	}
	// TIME is case-insensitive and can come first.
	st = mustParse(t, "SELECT COUNT(*) FROM covid WHERE TIME BETWEEN 0 AND 0 AND positive = 0")
	if _, _, ok := st.Query.Window(); !ok {
		t.Fatal("uppercase TIME not recognized")
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	mustParse(t, "select count(*) from covid where positive = 1 and age in (1,2)")
}

func TestTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT COUNT(*) FROM covid;")
	mustParse(t, "SELECT COUNT(*) FROM covid WHERE positive = 1;")
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"SELECT AVG(*) FROM covid", "COUNT(*) only"},
		{"SELECT COUNT(*) covid", "FROM"},
		{"SELECT COUNT(*) FROM covid WHERE bogus = 1", "unknown column"},
		{"SELECT COUNT(*) FROM covid WHERE positive = 9", "out of range"},
		{"SELECT COUNT(*) FROM covid WHERE positive = 'maybe'", "unknown level"},
		{"SELECT COUNT(*) FROM covid WHERE positive = 1 OR age = 0", "conjunctive"},
		{"SELECT COUNT(*) FROM covid GROUP BY age", "GROUP BY"},
		{"SELECT COUNT(*) FROM covid WHERE age IN ()", "expected value"},
		{"SELECT COUNT(*) FROM covid WHERE age IN (1 2)", "expected , or )"},
		{"SELECT COUNT(*) FROM covid WHERE time BETWEEN 5 AND 2", "window"},
		{"SELECT COUNT(*) FROM covid WHERE time BETWEEN x AND 2", "expected number"},
		{"SELECT COUNT(*) FROM covid WHERE age > 2", "unexpected character '>'"},
		{"SELECT COUNT(*) FROM covid WHERE age BETWEEN 1 AND 2", "expected = or IN"},
		{"SELECT COUNT(*) FROM covid WHERE", "expected column"},
		{"SELECT COUNT(*) FROM covid trailing", "trailing"},
		{"COUNT(*) FROM covid", "SELECT"},
		{"SELECT COUNT * FROM covid", `"("`},
		{"SELECT COUNT(x) FROM covid", `"*"`},
		{"SELECT COUNT(*) FROM covid WHERE positive = 1 AND positive = 0", "contradictory"},
	}
	p := New(covid())
	for _, c := range cases {
		_, err := p.Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %q missing %q", c.src, err, c.wantSub)
		}
	}
}

func TestLexErrors(t *testing.T) {
	p := New(covid())
	if _, err := p.Parse("SELECT COUNT(*) FROM covid WHERE positive = 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := p.Parse("SELECT COUNT(*) FROM covid WHERE positive = 1 @"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestRepeatedAttributeIntersects(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*) FROM covid WHERE age IN (0,1,2) AND age IN (1,2,3)")
	if got := st.Query.Allowed(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("intersection = %v", got)
	}
}

func TestCustomTimeAttr(t *testing.T) {
	p := New(covid())
	p.TimeAttr = "week"
	st, err := p.Parse("SELECT COUNT(*) FROM covid WHERE week BETWEEN 1 AND 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Query.Window(); !ok {
		t.Fatal("custom time attribute not honored")
	}
	// The window column matches under Unicode case folding: a Kelvin
	// sign's k is a k.
	p.TimeAttr = "wee\u212a"
	const src = "SELECT COUNT(*) FROM covid WHERE WEEK BETWEEN 1 AND 3"
	st, err = p.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleParse(p, src)
	if s, e, ok := st.Query.Window(); err != nil || !ok || s != 1 || e != 3 || st.Query.KeyWithWindow() != want.Query.KeyWithWindow() {
		t.Fatalf("Parse(%q) with TimeAttr %q: window [%d,%d] %v, oracle %v", src, p.TimeAttr, s, e, ok, err)
	}
}

// TestNoIdentifierFoldsToASCII: keywords are matched with an ASCII fold
// alone (word), which answers as strings.EqualFold does only because no
// identifier with a byte past ASCII folds to one without: every rune past
// ASCII whose fold orbit holds an ASCII letter has a byte in its UTF-8
// form that no identifier continues with.
func TestNoIdentifierFoldsToASCII(t *testing.T) {
	var folding []rune
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f >= utf8.RuneSelf {
				continue
			}
			folding = append(folding, r)
			if !slices.ContainsFunc([]byte(string(r)), func(b byte) bool { return classes[b]&clsIdent == 0 }) {
				t.Errorf("%q (%U) folds to %q and lexes inside an identifier", r, r, f)
			}
			break
		}
	}
	if len(folding) == 0 {
		t.Fatal("no rune past ASCII folds to an ASCII letter: the check checks nothing")
	}
	t.Logf("runes past ASCII that fold to ASCII: %q", folding)
}

func TestDoubleQuotedStrings(t *testing.T) {
	mustParse(t, `SELECT COUNT(*) FROM covid WHERE age = "50-64"`)
}

func TestNegativeWindowRejected(t *testing.T) {
	if _, err := New(covid()).Parse("SELECT COUNT(*) FROM covid WHERE time BETWEEN -1 AND 2"); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestRepeatedWindowIntersects: a second time BETWEEN narrows the window
// as a repeated attribute narrows its set, whichever comes first, and
// windows that do not overlap are contradictory. (The second window used
// to replace the first.)
func TestRepeatedWindowIntersects(t *testing.T) {
	for _, c := range []struct {
		where      string
		start, end int
	}{
		{"time BETWEEN 0 AND 3 AND time BETWEEN 2 AND 5", 2, 3}, // overlapping
		{"time BETWEEN 2 AND 3 AND time BETWEEN 0 AND 5", 2, 3}, // nested, the outer last
		{"time BETWEEN 1 AND 4 AND positive = 1 AND time BETWEEN 4 AND 4", 4, 4},
	} {
		st := mustParse(t, "SELECT COUNT(*) FROM covid WHERE "+c.where)
		if s, e, ok := st.Query.Window(); !ok || s != c.start || e != c.end {
			t.Errorf("%s: window [%d,%d] %v, want [%d,%d]", c.where, s, e, ok, c.start, c.end)
		}
	}
	const disjoint = "SELECT COUNT(*) FROM covid WHERE time BETWEEN 2 AND 5 AND time BETWEEN 0 AND 1"
	st, err := New(covid()).Parse(disjoint)
	if want := "query: contradictory windows [2,5] and [0,1]"; err == nil || err.Error() != want {
		t.Errorf("Parse(%q) = %v, %v; want error %q", disjoint, st, err, want)
	}
}
