package sqlparser

import (
	"strings"
	"testing"
)

func TestParseGroupedSingleColumn(t *testing.T) {
	p := New(covid())
	gs, err := p.ParseGrouped("SELECT COUNT(*) FROM covid WHERE positive = 1 GROUP BY age")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(gs.Groups))
	}
	for i, g := range gs.Groups {
		if len(g.Values) != 1 || g.Values[0] != i {
			t.Fatalf("group %d values = %v", i, g.Values)
		}
		if got := g.Query.Allowed(1); len(got) != 1 || got[0] != i {
			t.Fatalf("group %d age = %v", i, got)
		}
		if got := g.Query.Allowed(0); len(got) != 1 || got[0] != 1 {
			t.Fatalf("group %d lost WHERE filter: %v", i, got)
		}
	}
}

func TestParseGroupedMultiColumn(t *testing.T) {
	p := New(covid())
	gs, err := p.ParseGrouped("SELECT COUNT(*) FROM covid GROUP BY positive, gender")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Groups) != 4 { // 2 × 2
		t.Fatalf("groups = %d", len(gs.Groups))
	}
	// Row-major enumeration.
	want := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i, g := range gs.Groups {
		if g.Values[0] != want[i][0] || g.Values[1] != want[i][1] {
			t.Fatalf("group %d = %v, want %v", i, g.Values, want[i])
		}
	}
	// Support sets partition the domain.
	total := 0
	for _, g := range gs.Groups {
		total += g.Query.SupportSize()
	}
	if total != covid().Size() {
		t.Fatalf("groups cover %d bins, want %d", total, covid().Size())
	}
}

func TestParseGroupedKeepsWindow(t *testing.T) {
	p := New(covid())
	gs, err := p.ParseGrouped(
		"SELECT COUNT(*) FROM covid WHERE time BETWEEN 1 AND 3 GROUP BY age")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs.Groups {
		s, e, ok := g.Query.Window()
		if !ok || s != 1 || e != 3 {
			t.Fatalf("group lost window: %d,%d,%v", s, e, ok)
		}
	}
}

func TestParseGroupedWithoutClause(t *testing.T) {
	p := New(covid())
	gs, err := p.ParseGrouped("SELECT COUNT(*) FROM covid WHERE positive = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Groups) != 1 || gs.GroupBy != nil {
		t.Fatalf("ungrouped statement = %+v", gs)
	}
}

func TestParseGroupedErrors(t *testing.T) {
	p := New(covid())
	cases := []string{
		"SELECT COUNT(*) FROM covid GROUP BY bogus",
		"SELECT COUNT(*) FROM covid WHERE age = 1 GROUP BY age", // constrained
		"SELECT COUNT(*) FROM covid GROUP BY",
		"SELECT COUNT(*) FROM covid GROUP BY age,,gender",
		"SELECT AVG(*) FROM covid GROUP BY age",
	}
	for _, src := range cases {
		if _, err := p.ParseGrouped(src); err == nil {
			t.Errorf("ParseGrouped(%q) succeeded", src)
		}
	}
}

func TestParseGroupedTrailingSemicolon(t *testing.T) {
	p := New(covid())
	gs, err := p.ParseGrouped("SELECT COUNT(*) FROM covid GROUP BY gender;")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Groups) != 2 {
		t.Fatalf("groups = %d", len(gs.Groups))
	}
}

// TestParseGroupedRepeatedColumn: a column named twice in GROUP BY is an
// error that names it. Its second restriction contradicted the first, and
// the cell enumeration panicked on the Build it could not do.
func TestParseGroupedRepeatedColumn(t *testing.T) {
	p := New(covid())
	for _, src := range []string{
		"SELECT COUNT(*) FROM covid GROUP BY age, age",
		"SELECT COUNT(*) FROM covid WHERE positive = 1 GROUP BY age, gender,age",
	} {
		_, err := p.ParseGrouped(src)
		if err == nil || !strings.Contains(err.Error(), `GROUP BY column "age"`) {
			t.Errorf("ParseGrouped(%q) = %v, want an error naming GROUP BY column \"age\"", src, err)
		}
	}
}
