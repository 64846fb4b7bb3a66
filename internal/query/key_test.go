package query_test

import (
	"fmt"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/sqlparser"
)

func covid() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4},
		domain.Attribute{Name: "gender", Card: 2},
		domain.Attribute{Name: "ethnicity", Card: 8},
	)
}

// TestKeyGolden pins the cache keys as literals. Key and KeyWithWindow are
// the exact-cache key, the flight key and the key snapshots persist, so a
// rendering change strands every cached release; and the three ways to
// state one predicate — New's map, the Builder, SQL text — must agree.
// Covid's cardinalities 2, 4, 2 and 8 make one bitset byte per attribute,
// after a window header of 0x00 (none) or 0x01, start, end.
func TestKeyGolden(t *testing.T) {
	d := covid()
	cases := []struct {
		allowed     map[int][]int
		window      []int // nil or {start, end}
		sql         string
		key, winKey string
	}{
		{nil, nil,
			"SELECT COUNT(*) FROM covid",
			"\x03\x0f\x03\xff", "\x00\x03\x0f\x03\xff"},
		{map[int][]int{0: {0, 1}, 2: {1, 0}}, []int{3, 3}, // full sets are no constraint
			"SELECT COUNT(*) FROM covid WHERE positive IN (0, 1) AND gender IN (1, 0) AND time BETWEEN 3 AND 3",
			"\x03\x0f\x03\xff", "\x01\x03\x03\x03\x0f\x03\xff"},
		{map[int][]int{0: {1}}, nil,
			"SELECT COUNT(*) FROM covid WHERE positive = 'positive'",
			"\x02\x0f\x03\xff", "\x00\x02\x0f\x03\xff"},
		{map[int][]int{1: {3, 1, 2}, 2: {0}, 3: {7, 0, 4, 1, 3}}, []int{0, 2},
			"SELECT COUNT(*) FROM covid WHERE ethnicity IN (7, 0, 4, 1, 3) AND time BETWEEN 0 AND 2 AND age IN (3, 1, 2) AND gender = 0",
			"\x03\x0e\x01\x9b", "\x01\x00\x02\x03\x0e\x01\x9b"},
		{map[int][]int{3: {5}}, []int{10, 300},
			"SELECT COUNT(*) FROM covid WHERE time BETWEEN 10 AND 300 AND ethnicity = 5",
			"\x03\x0f\x03\x20", "\x01\x0a\xac\x02\x03\x0f\x03\x20"},
	}
	parser := sqlparser.New(d)
	for _, c := range cases {
		fromMap := query.MustNew(d, c.allowed)
		b := query.NewBuilder(d)
		for attr, vals := range c.allowed {
			b.Restrict(attr, vals...)
		}
		if c.window != nil {
			fromMap = fromMap.WithWindow(c.window[0], c.window[1])
			b.Window(c.window[0], c.window[1])
		}
		fromBuilder, err := b.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", c.sql, err)
		}
		st, err := parser.Parse(c.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.sql, err)
		}
		for how, q := range map[string]*query.Query{"New": fromMap, "Builder": fromBuilder, "SQL": st.Query} {
			if q.Key() != c.key || q.KeyWithWindow() != c.winKey {
				t.Errorf("%s via %s: keys %q %q, want %q %q", c.sql, how, q.Key(), q.KeyWithWindow(), c.key, c.winKey)
			}
			if got := q.WithoutWindow().WithWindow(4, 9).KeyWithWindow(); got != "\x01\x04\x09"+c.key {
				t.Errorf("%s via %s: WithWindow(4, 9) key = %q", c.sql, how, got)
			}
			for i := 0; i < d.NumAttrs(); i++ {
				if fmt.Sprint(q.Allowed(i)) != fmt.Sprint(fromMap.Allowed(i)) {
					t.Errorf("%s via %s: Allowed(%d) = %v, New has %v", c.sql, how, i, q.Allowed(i), fromMap.Allowed(i))
				}
			}
		}
	}
}

// TestBuilderBuildTwice: Build hands the builder's value sets to the query
// without copying them, so it must leave the builder able to build an
// equal query again, and restricting the builder further must not reach
// into a query already built.
func TestBuilderBuildTwice(t *testing.T) {
	d := covid()
	b := query.NewBuilder(d).Restrict(1, 3, 0, 2).Restrict(3, 6, 5).Window(1, 4)
	first, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const key = "\x01\x01\x04\x03\x0d\x03\x60" // age {0,2,3}, ethnicity {5,6}, [1,4]
	if first.KeyWithWindow() != key || second.KeyWithWindow() != key || first == second {
		t.Fatalf("two builds: %q, %q", first.KeyWithWindow(), second.KeyWithWindow())
	}

	third, err := b.Restrict(1, 2, 3).Restrict(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := third.KeyWithWindow(), "\x01\x01\x04\x02\x0c\x03\x60"; got != want {
		t.Fatalf("third build %q, want %q", got, want)
	}
	for _, q := range []*query.Query{first, second} {
		if q.KeyWithWindow() != key || fmt.Sprint(q.Allowed(1)) != "[0 2 3]" || q.Allowed(0) != nil || q.SupportSize() != 2*3*2*2 {
			t.Fatalf("earlier build changed: %q Allowed(1)=%v Allowed(0)=%v support %d",
				q.KeyWithWindow(), q.Allowed(1), q.Allowed(0), q.SupportSize())
		}
	}

	// A full set is dropped from the query, not from the builder: the next
	// Restrict on it still intersects.
	b = query.NewBuilder(d).Restrict(2, 1, 0)
	if q, err := b.Build(); err != nil || q.Key() != "\x03\x0f\x03\xff" {
		t.Fatalf("full set: %v %v", q, err)
	}
	if q, err := b.Restrict(2, 1).Build(); err != nil || q.Key() != "\x03\x0f\x02\xff" {
		t.Fatalf("full set, then restricted: %v %v", q, err)
	}
}

// TestBuilderEmptyAndContradictory keeps the two errors apart: an attribute
// restricted to nothing is an empty value set at Build, restricted twice
// to disjoint sets a contradiction at the second Restrict.
func TestBuilderEmptyAndContradictory(t *testing.T) {
	d := covid()
	if _, err := query.NewBuilder(d).Restrict(1).Build(); err == nil || err.Error() != `query: empty value set for attribute "age"` {
		t.Errorf("empty set: %v", err)
	}
	if _, err := query.NewBuilder(d).Restrict(1).Restrict(1, 2).Build(); err == nil || err.Error() != `query: contradictory constraints on "age"` {
		t.Errorf("empty set restricted again: %v", err)
	}
	if _, err := query.NewBuilder(d).Restrict(1, 0, 1).Restrict(1, 2, 3).Build(); err == nil || err.Error() != `query: contradictory constraints on "age"` {
		t.Errorf("disjoint sets: %v", err)
	}
}

// BenchmarkQueryBuild builds the three-attribute windowed query of the
// parser's example statement, builder included.
func BenchmarkQueryBuild(b *testing.B) {
	d := covid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildExample(d); err != nil {
			b.Fatal(err)
		}
	}
}

func buildExample(d *domain.Domain) (*query.Query, error) {
	return query.NewBuilder(d).Restrict(1, 1, 2, 3).Restrict(2, 0).Restrict(3, 0, 1, 3, 4, 7).Window(0, 2).Build()
}
