package query

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/domain"
)

func covid() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "positive", Card: 2, Levels: []string{"negative", "positive"}},
		domain.Attribute{Name: "age", Card: 4},
		domain.Attribute{Name: "gender", Card: 2},
		domain.Attribute{Name: "ethnicity", Card: 8},
	)
}

func TestNewValidations(t *testing.T) {
	d := covid()
	cases := []struct {
		name    string
		allowed map[int][]int
	}{
		{"attr out of range", map[int][]int{7: {0}}},
		{"negative attr", map[int][]int{-1: {0}}},
		{"empty set", map[int][]int{0: {}}},
		{"value out of range", map[int][]int{0: {2}}},
		{"negative value", map[int][]int{1: {-1}}},
		{"duplicate value", map[int][]int{1: {2, 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(d, c.allowed); err == nil {
				t.Fatalf("New(%v) succeeded, want error", c.allowed)
			}
		})
	}
}

func TestFullSetIsUnconstrained(t *testing.T) {
	d := covid()
	q1 := MustNew(d, map[int][]int{0: {0, 1}})
	q2 := MustNew(d, nil)
	if q1.Key() != q2.Key() {
		t.Errorf("full-set constraint key %q != unconstrained key %q", q1.Key(), q2.Key())
	}
	if q1.SupportSize() != d.Size() {
		t.Errorf("SupportSize = %d, want %d", q1.SupportSize(), d.Size())
	}
}

func TestKeyCanonical(t *testing.T) {
	d := covid()
	q1 := MustNew(d, map[int][]int{1: {3, 0, 2}})
	q2 := MustNew(d, map[int][]int{1: {0, 2, 3}})
	if q1.Key() != q2.Key() {
		t.Errorf("value order changed key: %q vs %q", q1.Key(), q2.Key())
	}
	q3 := MustNew(d, map[int][]int{1: {0, 2}})
	if q1.Key() == q3.Key() {
		t.Error("different queries share a key")
	}
}

func TestSupportSize(t *testing.T) {
	d := covid()
	q := MustNew(d, map[int][]int{0: {1}, 1: {0, 1}, 3: {2, 4, 6}})
	want := 1 * 2 * 2 * 3 // positive=1, age in {0,1}, gender any, ethnicity 3 values
	if q.SupportSize() != want {
		t.Fatalf("SupportSize = %d, want %d", q.SupportSize(), want)
	}
}

// matches reports whether bin index idx satisfies q's predicate, by
// looking each attribute's value up in its allowed set: the per-bin
// definition the support enumeration and Eval are checked against.
func matches(q *Query, idx int) bool {
	for i, vals := range q.allowed {
		if vals == nil {
			continue
		}
		v := q.dom.Value(idx, i)
		j := sort.SearchInts(vals, v)
		if j >= len(vals) || vals[j] != v {
			return false
		}
	}
	return true
}

func TestForEachBinMatchesAndCount(t *testing.T) {
	d := covid()
	q := MustNew(d, map[int][]int{0: {1}, 2: {0}})
	count := 0
	prev := -1
	q.ForEachBin(func(bin int) {
		if bin <= prev {
			t.Fatalf("bins not strictly increasing: %d after %d", bin, prev)
		}
		prev = bin
		if !matches(q, bin) {
			t.Fatalf("ForEachBin yielded non-matching bin %d", bin)
		}
		count++
	})
	if count != q.SupportSize() {
		t.Fatalf("ForEachBin yielded %d bins, want %d", count, q.SupportSize())
	}
	// Every matching bin is yielded: check the complement.
	matching := 0
	for bin := 0; bin < d.Size(); bin++ {
		if matches(q, bin) {
			matching++
		}
	}
	if matching != count {
		t.Fatalf("Matches found %d bins, ForEachBin %d", matching, count)
	}
}

func TestForEachBinQuick(t *testing.T) {
	d := domain.MustNew(
		domain.Attribute{Name: "a", Card: 3},
		domain.Attribute{Name: "b", Card: 4},
		domain.Attribute{Name: "c", Card: 5},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		allowed := make(map[int][]int)
		for attr := 0; attr < 3; attr++ {
			if r.Intn(2) == 0 {
				continue
			}
			card := d.Card(attr)
			var vals []int
			for v := 0; v < card; v++ {
				if r.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				vals = []int{r.Intn(card)}
			}
			allowed[attr] = vals
		}
		q, err := New(d, allowed)
		if err != nil {
			return false
		}
		// Support enumeration must agree with predicate evaluation.
		got := make(map[int]bool)
		q.ForEachBin(func(bin int) { got[bin] = true })
		for bin := 0; bin < d.Size(); bin++ {
			if got[bin] != matches(q, bin) {
				return false
			}
		}
		return len(got) == q.SupportSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalAgainstBruteForce(t *testing.T) {
	d := covid()
	q := MustNew(d, map[int][]int{1: {1, 2}, 3: {0, 7}})
	h := make([]float64, d.Size())
	for i := range h {
		h[i] = float64(i + 1)
	}
	want := 0.0
	for bin := 0; bin < d.Size(); bin++ {
		if matches(q, bin) {
			want += h[bin]
		}
	}
	if got := q.Eval(h); got != want {
		t.Fatalf("Eval = %g, want %g", got, want)
	}
}

func TestEvalPanicsOnSizeMismatch(t *testing.T) {
	d := covid()
	q := MustNew(d, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with wrong vector length did not panic")
		}
	}()
	q.Eval(make([]float64, 5))
}

func TestWindow(t *testing.T) {
	d := covid()
	q := MustNew(d, map[int][]int{0: {1}})
	if _, _, ok := q.Window(); ok {
		t.Fatal("fresh query has a window")
	}
	w := q.WithWindow(2, 5)
	s, e, ok := w.Window()
	if !ok || s != 2 || e != 5 {
		t.Fatalf("Window = %d,%d,%v", s, e, ok)
	}
	// Original is immutable.
	if _, _, ok := q.Window(); ok {
		t.Fatal("WithWindow mutated the receiver")
	}
	if w.Key() != q.Key() {
		t.Error("window changed predicate key")
	}
	if w.KeyWithWindow() == q.KeyWithWindow() {
		t.Error("KeyWithWindow ignores window")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad window did not panic")
			}
		}()
		q.WithWindow(3, 1)
	}()
}

func TestStringRendering(t *testing.T) {
	d := covid()
	q := MustNew(d, map[int][]int{0: {1}, 1: {0, 2}}).WithWindow(1, 3)
	s := q.String()
	for _, want := range []string{"positive=positive", "age IN (0,2)", "time BETWEEN 1 AND 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if s := MustNew(d, nil).String(); !strings.Contains(s, "TRUE") {
		t.Errorf("unconstrained String() = %q, want TRUE", s)
	}
}

func TestBuilder(t *testing.T) {
	d := covid()
	q, err := NewBuilder(d).
		Restrict(0, 1).
		Restrict(1, 0, 1, 2).
		Restrict(1, 1, 2, 3). // intersect → {1,2}
		Window(0, 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Allowed(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("intersected Allowed(1) = %v, want [1 2]", got)
	}
	if s, e, ok := q.Window(); !ok || s != 0 || e != 4 {
		t.Fatalf("builder window = %d,%d,%v", s, e, ok)
	}

	if _, err := NewBuilder(d).Restrict(0, 0).Restrict(0, 1).Build(); err == nil {
		t.Error("contradictory constraints did not error")
	}
	if _, err := NewBuilder(d).Window(-1, 2).Build(); err == nil {
		t.Error("negative window did not error")
	}
	if _, err := NewBuilder(d).Restrict(9, 0).Build(); err == nil {
		t.Error("attr out of range did not error")
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	d := covid()
	b := NewBuilder(d).Restrict(9, 0) // error
	b.Restrict(0, 1)                  // should not clear the error
	if _, err := b.Build(); err == nil {
		t.Fatal("builder error was not sticky")
	}
}
