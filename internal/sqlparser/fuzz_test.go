package sqlparser

import "testing"

// parseSeeds is FuzzParse's seed corpus; TestParseMatchesOracle walks it
// too. New seeds go at the end: the fuzz engine names them by position.
var parseSeeds = []string{
	"SELECT COUNT(*) FROM covid",
	"SELECT COUNT(*) FROM covid WHERE positive = 1",
	"SELECT COUNT(*) FROM covid WHERE age IN (0, 1, 2) AND gender = 0",
	"SELECT COUNT(*) FROM covid WHERE time BETWEEN 2 AND 5",
	"select count(*) from covid where positive = 'positive';",
	"SELECT COUNT(*) FROM covid WHERE ethnicity IN (7)",
	"SELECT COUNT(*) FROM covid WHERE positive = 1 AND positive = 1",
	"",
	"garbage ' unterminated",
	"SELECT COUNT(*) FROM covid WHERE age = -1",
	"SELECT COUNT(*) FROM covid WHERE \x00 = 1",
	"SELECT COUNT(*) FROM covid-19 WHERE positive = 1", // '-' continues an identifier
	"SELECT COUNT(*) FROM covid WHERE caf\xe9 = 1 @",   // Latin-1 letter, then a lex error past a parse error
	"SELECT COUNT(*) FROM covid WHERE age IN (3, 1, 1)",
	"SELECT COUNT(*) FROM covid WHERE age IN (0,1,2,3) AND time BETWEEN 1.5 AND 2",
	"\u017fELECT COUNT(*) FROM covid",                             // ſ folds to S, and is no identifier byte
	"SELECT COUNT(*) FROM covid WHERE age = 99999999999999999999", // past any int
	"SELECT COUNT(*) FROM covid WHERE age IN (1, -0, 2.) AND time BETWEEN -1 AND 3",
}

// groupedSeeds is FuzzParseGrouped's seed corpus.
var groupedSeeds = []string{
	"SELECT COUNT(*) FROM covid GROUP BY age",
	"SELECT COUNT(*) FROM covid WHERE positive = 1 GROUP BY age, gender",
	"SELECT COUNT(*) FROM covid GROUP BY",
	"SELECT COUNT(*) FROM covid WHERE age = 1 GROUP BY age",
	"SELECT COUNT(*) FROM covid group by ethnicity;",
	"SELECT COUNT(*)FROM \xeb GROUP BYage", // not UTF-8: ToUpper moves the clause
	"SELECT COUNT(*) FROM covid GROUP BY age, age",
}

// FuzzParse checks that no input can panic the parser or produce a query
// violating its invariants, and that the parser agrees with the oracle it
// replaced, and the key-first path with Parse, on every input: same
// statement and key, or same error text.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	p := New(covid())
	f.Fuzz(func(t *testing.T, src string) {
		st, err := p.Parse(src)
		checkMatchesOracle(t, p, src, st, err)
		if err != nil {
			return
		}
		// Parsed queries must satisfy their invariants.
		q := st.Query
		if q.SupportSize() < 1 || q.SupportSize() > 128 {
			t.Fatalf("support %d out of range for %q", q.SupportSize(), src)
		}
		if s, e, ok := q.Window(); ok && (s < 0 || s > e) {
			t.Fatalf("bad window [%d,%d] for %q", s, e, src)
		}
		if q.Key() == "" {
			t.Fatalf("empty key for %q", src)
		}
	})
}

// FuzzParseGrouped extends the check to GROUP BY decomposition: groups
// must partition the base query's support, and the statement under the
// clause must parse as the oracle parses it.
func FuzzParseGrouped(f *testing.F) {
	for _, s := range groupedSeeds {
		f.Add(s)
	}
	p := New(covid())
	f.Fuzz(func(t *testing.T, src string) {
		if base, _, err := splitGroupBy(src); err == nil {
			st, err := p.Parse(base)
			checkMatchesOracle(t, p, base, st, err)
		}
		gs, err := p.ParseGrouped(src)
		if err != nil {
			return
		}
		if len(gs.Groups) == 0 {
			t.Fatalf("no groups for %q", src)
		}
		if len(gs.GroupBy) == 0 {
			return // plain statement
		}
		// Group supports are disjoint and cover the base support: their
		// sizes sum to the support of the statement without the GROUP BY
		// restrictions.
		// Cut where splitGroupBy cuts: an index into strings.ToUpper(src)
		// is not one into src once a byte is not UTF-8 (the last seed).
		baseSrc := src[:lastIndexFold(src, "GROUP BY")]
		base, err := p.Parse(baseSrc)
		if err != nil {
			t.Fatalf("base re-parse of %q: %v", baseSrc, err)
		}
		total := 0
		for _, g := range gs.Groups {
			total += g.Query.SupportSize()
		}
		if total != base.Query.SupportSize() {
			t.Fatalf("groups cover %d bins, base %d, for %q", total, base.Query.SupportSize(), src)
		}
	})
}
