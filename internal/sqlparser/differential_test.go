// Differential tests: the one-pass parser against the first parser
// (oracle_test.go), and the builder's packed keys against a rendering
// written from the format's definition.
//
// What each input family is there to catch:
//
//   - all 256 single-byte column names: the class table built one entry
//     off (0xAA 'ª' is a letter and so an unknown column; 0xAB '«' is an
//     unexpected character), or a Latin-1 space (0x85, 0xA0) lost;
//   - the seed corpora: '-' dropped from the identifier bytes ("covid-19"
//     turns from a table name into trailing input), a lex error no longer
//     winning over an earlier parse error, '.' dropped from number bytes;
//   - both query pools × windows: a key rendered differently — a bit off
//     by one, an unconstrained attribute left empty, the window header in
//     another shape — or value sets sorted, deduplicated or dropped
//     differently by the builder.
//
// Every input also goes the handlers' way, key first (checkKeyPath): the
// key a Builder renders is the key of the query Parse builds, and the two
// refuse the same statements with the same error.

package sqlparser

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/workload"
)

// oracleKeys renders q's two cache keys straight from the packed format's
// definition: a window header (0x00, or 0x01 then start and end as
// uvarints), then per attribute a bitset of ⌈card/8⌉ bytes (all ones for
// unconstrained) or, past 64 values, a uvarint count (0 for unconstrained)
// and each value's uvarint gap from the one before.
func oracleKeys(q *query.Query) (key, winKey string) {
	var pred []byte
	d := q.Domain()
	for i := 0; i < d.NumAttrs(); i++ {
		vals := q.Allowed(i)
		if d.Card(i) > 64 {
			pred = binary.AppendUvarint(pred, uint64(len(vals)))
			prev := -1
			for _, v := range vals {
				pred = binary.AppendUvarint(pred, uint64(v-prev-1))
				prev = v
			}
			continue
		}
		set := make([]byte, (d.Card(i)+7)/8)
		for v := 0; v < d.Card(i); v++ {
			if vals == nil || slices.Contains(vals, v) {
				set[v/8] |= 1 << (v % 8)
			}
		}
		pred = append(pred, set...)
	}
	head := []byte{0}
	if s, e, ok := q.Window(); ok {
		head = binary.AppendUvarint(binary.AppendUvarint([]byte{1}, uint64(s)), uint64(e))
	}
	return string(pred), string(head) + string(pred)
}

// checkMatchesOracle fails t unless (got, gotErr), the parser's result on
// src, is what the oracle parser returns: the same error text, or the same
// table, window, value sets and keys.
func checkMatchesOracle(t *testing.T, p *Parser, src string, got *Statement, gotErr error) {
	t.Helper()
	checkKeyPath(t, p, src, got, gotErr)
	want, wantErr := oracleParse(p, src)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("Parse(%q)\n  error  %v\n  oracle %v", src, gotErr, wantErr)
		}
		return
	}
	g, w := got.Query, want.Query
	gs, ge, gok := g.Window()
	ws, we, wok := w.Window()
	if got.Table != want.Table || gs != ws || ge != we || gok != wok ||
		g.Key() != w.Key() || g.KeyWithWindow() != w.KeyWithWindow() {
		t.Fatalf("Parse(%q)\n  got    %s %s %s\n  oracle %s %s %s", src,
			got.Table, g.Key(), g.KeyWithWindow(), want.Table, w.Key(), w.KeyWithWindow())
	}
	for i := 0; i < p.dom.NumAttrs(); i++ {
		if !slices.Equal(g.Allowed(i), w.Allowed(i)) || (g.Allowed(i) == nil) != (w.Allowed(i) == nil) {
			t.Fatalf("Parse(%q): Allowed(%d) = %v, oracle %v", src, i, g.Allowed(i), w.Allowed(i))
		}
	}
	if key, winKey := oracleKeys(g); g.Key() != key || g.KeyWithWindow() != winKey {
		t.Fatalf("Parse(%q): keys %q %q, oracle rendering %q %q", src, g.Key(), g.KeyWithWindow(), key, winKey)
	}
}

// reused holds, per parser, the query checkKeyPath rebuilds, as a
// connection holds one: each statement is built into the query the last
// one left, its support resolved. The first statement it held, with a
// window and no predicate, has the widest support there is.
var reused struct {
	sync.Mutex
	q map[*Parser]*query.Query
}

// checkKeyPath fails t unless the handlers' key-first path on src —
// ParseInto a Builder that held another statement, then AppendKey, then
// on a miss BuildInto the query the last statement was built into — is
// what Parse returned, (got, gotErr): the same error text, or the same
// table and Parse's KeyWithWindow byte for byte; and unless the reused
// query carries over nothing from the statement it held: its keys,
// window, value sets and resolved support are those of a fresh Build.
func checkKeyPath(t *testing.T, p *Parser, src string, got *Statement, gotErr error) {
	t.Helper()
	var b query.Builder
	if _, err := p.ParseInto("SELECT COUNT(*) FROM t WHERE time BETWEEN 3 AND 4", &b); err != nil {
		t.Fatal(err)
	}
	reused.Lock()
	defer reused.Unlock()
	q := reused.q[p]
	if q == nil {
		q = new(query.Query)
		stale, _ := b.AppendKey(nil)
		if err := b.BuildInto(q, string(stale)); err != nil {
			t.Fatal(err)
		}
		q.ResolvedSupport()
		if reused.q == nil {
			reused.q = make(map[*Parser]*query.Query)
		}
		reused.q[p] = q
	}
	table, err := p.ParseInto(src, &b)
	var key []byte
	if err == nil {
		key, err = b.AppendKey([]byte("stale"))
		key = key[len("stale"):]
	}
	if gotErr != nil || err != nil {
		if gotErr == nil || err == nil || gotErr.Error() != err.Error() {
			t.Fatalf("%q: Parse error %v, key path error %v", src, gotErr, err)
		}
		return
	}
	if table != got.Table || string(key) != got.Query.KeyWithWindow() {
		t.Fatalf("%q: key path %s %q, Parse %s %q", src, table, key, got.Table, got.Query.KeyWithWindow())
	}
	if err := b.BuildInto(q, string(key)); err != nil {
		t.Fatalf("%q: BuildInto after AppendKey: %v", src, err)
	}
	fresh, err := b.Build()
	if err != nil {
		t.Fatalf("%q: Build after AppendKey: %v", src, err)
	}
	rs, re, rok := q.Window()
	fs, fe, fok := fresh.Window()
	if q.KeyWithWindow() != fresh.KeyWithWindow() || q.Key() != fresh.Key() ||
		rs != fs || re != fe || rok != fok || q.SupportSize() != fresh.SupportSize() {
		t.Fatalf("%q: reused query %q %q [%d,%d] %v size %d, fresh %q %q [%d,%d] %v size %d", src,
			q.KeyWithWindow(), q.Key(), rs, re, rok, q.SupportSize(),
			fresh.KeyWithWindow(), fresh.Key(), fs, fe, fok, fresh.SupportSize())
	}
	for i := 0; i < p.dom.NumAttrs(); i++ {
		if !slices.Equal(q.Allowed(i), fresh.Allowed(i)) || (q.Allowed(i) == nil) != (fresh.Allowed(i) == nil) {
			t.Fatalf("%q: reused Allowed(%d) = %v, fresh %v", src, i, q.Allowed(i), fresh.Allowed(i))
		}
	}
	if r, f := q.ResolvedSupport().Bins(), fresh.ResolvedSupport().Bins(); !slices.Equal(r, f) {
		t.Fatalf("%q: reused support %v, fresh %v", src, r, f)
	}
}

// renderSQL writes q back as a statement: values as numbers, or as quoted
// level names when named is set and the attribute has them.
func renderSQL(q *query.Query, table string, named bool) string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM " + table)
	sep := " WHERE "
	dom := q.Domain()
	for a := 0; a < dom.NumAttrs(); a++ {
		vals := q.Allowed(a)
		if vals == nil {
			continue
		}
		value := func(v int) string {
			if named && dom.Attr(a).Levels != nil {
				return "'" + dom.LevelName(a, v) + "'"
			}
			return strconv.Itoa(v)
		}
		b.WriteString(sep + dom.Attr(a).Name)
		sep = " AND "
		if len(vals) == 1 {
			b.WriteString(" = " + value(vals[0]))
			continue
		}
		b.WriteString(" IN (")
		for j, v := range vals {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(value(v))
		}
		b.WriteString(")")
	}
	if s, e, ok := q.Window(); ok {
		b.WriteString(sep + "time BETWEEN " + strconv.Itoa(s) + " AND " + strconv.Itoa(e))
	}
	return b.String()
}

func TestParseMatchesOracle(t *testing.T) {
	p := New(covid())
	check := func(p *Parser, src string) *Statement {
		t.Helper()
		st, err := p.Parse(src)
		checkMatchesOracle(t, p, src, st, err)
		return st
	}

	for _, src := range parseSeeds {
		check(p, src)
	}
	for _, src := range groupedSeeds {
		check(p, src)
		if base, _, err := splitGroupBy(src); err == nil {
			check(p, base)
		}
	}
	for b := 0; b < 256; b++ {
		check(p, "SELECT COUNT(*) FROM covid WHERE "+string([]byte{byte(b)})+" = 1")
	}

	windows := [][2]int{{-1, -1}, {0, 2}, {12, 49}} // {-1, -1}: no window
	pools := []struct {
		table string
		dom   *domain.Domain
		pool  []*query.Query
	}{
		{"covid", workload.CovidDomain(), workload.CovidPool(workload.CovidDomain())},
		{"citibike", workload.CitiBikeDomain(), workload.CitiBikePool(workload.CitiBikeDomain())},
		{"citibike", workload.CitiBikeSmallDomain(), workload.CitiBikePool(workload.CitiBikeSmallDomain())},
	}
	for _, pl := range pools {
		p := New(pl.dom)
		for i, q := range pl.pool {
			for _, win := range windows {
				if testing.Short() && (i+win[1])%7 != 0 {
					continue
				}
				want := q
				if win[0] >= 0 {
					want = q.WithWindow(win[0], win[1])
				}
				src := renderSQL(want, pl.table, i%2 == 1)
				st := check(p, src)
				if st == nil {
					t.Fatalf("pool statement %q does not parse", src)
				}
				// The pool built this predicate through query.New(map):
				// the statement must come back as the same query.
				if st.Query.Key() != want.Key() || st.Query.KeyWithWindow() != want.KeyWithWindow() {
					t.Fatalf("Parse(%q) keys %q %q, pool query %q %q", src,
						st.Query.Key(), st.Query.KeyWithWindow(), want.Key(), want.KeyWithWindow())
				}
			}
		}
	}
}
