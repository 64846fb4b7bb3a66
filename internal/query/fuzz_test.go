package query_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/sqlparser"
)

// keyCase is one drawn (predicate, window): sets by attribute, nil for
// unconstrained, in the order drawn; the window, if any.
type keyCase struct {
	sets       [][]int
	start, end int
	window     bool
}

// drawDomain draws one to four attributes of cardinality 1 to 10, or at a
// bitset's edge (63, 64), plus one above it (65 to 300) at a random place.
func drawDomain(r *rand.Rand) *domain.Domain {
	n := 1 + r.Intn(4)
	big := r.Intn(n + 1)
	var attrs []domain.Attribute
	for i := 0; i <= n; i++ {
		card := 1 + r.Intn(10)
		switch {
		case i == big:
			card = 65 + r.Intn(236)
		case r.Intn(8) == 0:
			card = 63 + r.Intn(2)
		}
		attrs = append(attrs, domain.Attribute{Name: "c" + strconv.Itoa(i), Card: card})
	}
	return domain.MustNew(attrs...)
}

// drawCase draws value sets — sometimes full, which is no constraint — and
// a window whose bounds cross the one-byte uvarint edge.
func drawCase(r *rand.Rand, d *domain.Domain) keyCase {
	c := keyCase{sets: make([][]int, d.NumAttrs())}
	for i := range c.sets {
		card := d.Card(i)
		switch r.Intn(4) {
		case 0: // unconstrained
		case 1:
			c.sets[i] = r.Perm(card) // full set
		default:
			c.sets[i] = r.Perm(card)[:1+r.Intn(min(card, 6))]
		}
	}
	if r.Intn(3) > 0 {
		c.window = true
		c.start = r.Intn(300)
		c.end = c.start + r.Intn(300)
	}
	return c
}

// mutate returns c with one thing changed, or unchanged in substance (a set
// reordered) about a third of the time.
func mutate(r *rand.Rand, d *domain.Domain, c keyCase) keyCase {
	m := keyCase{sets: make([][]int, len(c.sets)), start: c.start, end: c.end, window: c.window}
	for i, s := range c.sets {
		if s != nil {
			m.sets[i] = slices.Clone(s)
			r.Shuffle(len(s), func(a, b int) { m.sets[i][a], m.sets[i][b] = m.sets[i][b], m.sets[i][a] })
		}
	}
	switch r.Intn(6) {
	case 0, 1:
	case 2:
		m.window = !m.window
	case 3:
		m.end++
	case 4:
		m.start = max(0, m.start-1)
	default:
		i := r.Intn(len(m.sets))
		m.sets[i] = []int{r.Intn(d.Card(i))}
	}
	return m
}

// canonical is what a key must identify: each set sorted, a full set
// dropped, and the window only when there is one.
func canonical(d *domain.Domain, c keyCase) (pred, win string) {
	for i, s := range c.sets {
		if s == nil || len(s) == d.Card(i) {
			pred += "*|"
			continue
		}
		pred += fmt.Sprint(slices.Sorted(slices.Values(s))) + "|"
	}
	if c.window {
		win = fmt.Sprint(c.start, c.end)
	}
	return pred, win
}

// build states c three ways — New's map, the Builder with the sets in
// another order, SQL text — and fails unless all three keys agree.
func build(t *testing.T, d *domain.Domain, c keyCase) *query.Query {
	t.Helper()
	allowed := map[int][]int{}
	b := query.NewBuilder(d)
	sql := "SELECT COUNT(*) FROM t"
	sep := " WHERE "
	for i := len(c.sets) - 1; i >= 0; i-- {
		s := c.sets[i]
		if s == nil {
			continue
		}
		allowed[i] = s
		rev := slices.Clone(s)
		slices.Reverse(rev)
		b.Restrict(i, rev...)
		vals := make([]string, len(s))
		for j, v := range s {
			vals[j] = strconv.Itoa(v)
		}
		sql += sep + d.Attr(i).Name + " IN (" + strings.Join(vals, ", ") + ")"
		sep = " AND "
	}
	q := query.MustNew(d, allowed)
	if c.window {
		q = q.WithWindow(c.start, c.end)
		b.Window(c.start, c.end)
		sql += fmt.Sprintf("%stime BETWEEN %d AND %d", sep, c.start, c.end)
	}
	viaBuilder, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st, err := sqlparser.New(d).Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	for how, other := range map[string]*query.Query{"Builder": viaBuilder, "SQL": st.Query} {
		if other.KeyWithWindow() != q.KeyWithWindow() || other.Key() != q.Key() {
			t.Fatalf("%s key %q, New's %q (%s)", how, other.KeyWithWindow(), q.KeyWithWindow(), sql)
		}
	}
	return q
}

// FuzzKey checks the packed key against its definition over random
// domains, each with an attribute past the bitset's reach: keys are equal
// exactly when the predicates and windows are, the window decodes without
// the domain, re-windowing a windowless copy gives the same key, and New,
// Builder and SQL agree.
func FuzzKey(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		d := drawDomain(r)
		a := drawCase(r, d)
		b := mutate(r, d, a)
		qa, qb := build(t, d, a), build(t, d, b)

		predA, winA := canonical(d, a)
		predB, winB := canonical(d, b)
		if same := predA == predB && winA == winB && a.window == b.window; (qa.KeyWithWindow() == qb.KeyWithWindow()) != same {
			t.Fatalf("KeyWithWindow %q vs %q, want equal = %v (%s%s vs %s%s)", qa.KeyWithWindow(), qb.KeyWithWindow(), same, predA, winA, predB, winB)
		}
		if (qa.Key() == qb.Key()) != (predA == predB) {
			t.Fatalf("Key %q vs %q, want equal = %v", qa.Key(), qb.Key(), predA == predB)
		}

		for _, q := range []*query.Query{qa, qb} {
			qs, qe, qok := q.Window()
			s, e, ok, err := query.KeyWindow(q.KeyWithWindow())
			if err != nil || ok != qok || s != qs || e != qe {
				t.Fatalf("KeyWindow(%q) = %d %d %v %v, want %d %d %v", q.KeyWithWindow(), s, e, ok, err, qs, qe, qok)
			}
			ws := r.Intn(200)
			we := ws + r.Intn(200)
			want := string(binary.AppendUvarint(binary.AppendUvarint([]byte{1}, uint64(ws)), uint64(we))) + q.Key()
			if got := q.WithWindow(ws, we).KeyWithWindow(); got != want {
				t.Fatalf("WithWindow(%d, %d) key = %q, want %q: the new window replaces any old one", ws, we, got, want)
			}
		}
	})
}

// TestKeyWindowRefusals: a key that does not open with a whole window
// header and some predicate is an error, not a window of 0.
func TestKeyWindowRefusals(t *testing.T) {
	for _, key := range []string{"", "\x00", "\x02\x03", "\x01", "\x01\x05", "\x01\x80", "\x01\x03\x02\x0f", "\x01\x01\x02"} {
		if s, e, ok, err := query.KeyWindow(key); err == nil {
			t.Errorf("KeyWindow(%q) = %d %d %v, want an error", key, s, e, ok)
		}
	}
}
