package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/query"
)

// TestColdReleasePayloadBytes pins what one cached covid release costs the
// store in payload — what MemoryBytes counts and -store-max-mb bounds: the
// namespace "session-exact/N" and its ":" (16 bytes), a 7-byte packed key
// and the 25-byte entry, 48 in all. Under textual keys it was about 69.
func TestColdReleasePayloadBytes(t *testing.T) {
	ds, batches := coldBatches(t)
	s := coldSession(t, ds)
	stmts := runCold(t, s, batches)
	st := s.StoreStats()
	if st.Entries != stmts {
		t.Fatalf("the store holds %d entries for %d cold statements", st.Entries, stmts)
	}
	if per := float64(st.Bytes) / float64(st.Entries); per > 48 {
		t.Fatalf("%.1f payload bytes per cached release, want <= 48", per)
	}
}

// cacheSection mirrors cache.Exact's snapshot payload field for field, so a
// test can rewrite what a damaged file would hold; legacyCacheSection is
// the same without KeyFormat, which is how a section from before keys were
// packed decodes (gob matches fields by name).
type cacheSection struct {
	Stripes   []cacheStripe
	KeyFormat int
}

type legacyCacheSection struct{ Stripes []cacheStripe }

type cacheStripe struct {
	Index int
	Keys  []string
	Vals  [][]byte
}

// rewriteSnapshot re-writes raw with edit applied to the named sections'
// payloads, decoded as cacheSection.
func rewriteSnapshot(t *testing.T, raw []byte, edit func(name string, sec *cacheSection) any, sections ...string) []byte {
	t.Helper()
	payloads, order, err := persist.ReadSections(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := persist.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		p := payloads[name]
		for _, want := range sections {
			if name != want {
				continue
			}
			var sec cacheSection
			if err := persist.Decode(p, &sec); err != nil {
				t.Fatal(err)
			}
			if p, err = persist.Encode(edit(name, &sec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteSection(name, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// textKey renders q's KeyWithWindow as builds before packed keys did:
// "i:v,v;" per constrained attribute ("*" for none), then "@[start,end]".
func textKey(q *query.Query) string {
	var b strings.Builder
	for i := 0; i < q.Domain().NumAttrs(); i++ {
		vals := q.Allowed(i)
		if vals == nil {
			continue
		}
		fmt.Fprintf(&b, "%d:", i)
		for j, v := range vals {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(';')
	}
	if b.Len() == 0 {
		b.WriteString("*")
	}
	if s, e, ok := q.Window(); ok {
		fmt.Fprintf(&b, "@[%d,%d]", s, e)
	}
	return b.String()
}

// keyedSession answers 16 distinct windowed statements and prefills two
// node-cache entries on a 2-shard partitioned session over 8 partitions,
// returning the snapshot, the statements and the node-cache queries.
func keyedSession(t *testing.T) (Config, []*query.Query, []*query.Query, []byte, *Session) {
	dom, ds := buildDS(t, 8)
	cfg := defaultCfg(Partitioned)
	cfg.NodeExactCache, cfg.Shards = true, 2
	src, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	var stmts, nodes []*query.Query
	for a := 0; a < 4; a++ {
		for w := 0; w < 4; w++ {
			q := query.MustNew(dom, map[int][]int{1: {a}}).WithWindow(2*w, min(7, 2*w+a)) // both stripes
			if _, err := src.Answer(q); err != nil {
				t.Fatal(err)
			}
			stmts = append(stmts, q)
		}
	}
	for w := 0; w < 2; w++ {
		q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(w, w)
		version, err := ds.RangeVersion(w, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Tree().Cache().Put(q, version, 0.5, 1e9); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, q)
	}
	var snap bytes.Buffer
	if err := src.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	return cfg, stmts, nodes, snap.Bytes(), src
}

// TestLoadStateRekeysTextKeys: a snapshot written before keys were packed
// — its session-exact and tree-node sections keyed by text — restores into
// sessions of 1 and 2 shards, every saved statement is then an exact hit
// that pays nothing, and the node cache serves its entries.
func TestLoadStateRekeysTextKeys(t *testing.T) {
	cfg, stmts, nodes, raw, src := keyedSession(t)
	text := map[string]string{}
	for _, q := range append(append([]*query.Query(nil), stmts...), nodes...) {
		text[q.KeyWithWindow()] = textKey(q)
	}
	rewritten := 0
	legacy := rewriteSnapshot(t, raw, func(name string, sec *cacheSection) any {
		for _, st := range sec.Stripes {
			for j, k := range st.Keys {
				if st.Keys[j] = text[k]; st.Keys[j] == "" {
					t.Fatalf("%s holds %q, a key no statement made", name, k)
				}
				rewritten++
			}
		}
		return legacyCacheSection{Stripes: sec.Stripes}
	}, "cache/session-exact", "cache/tree-node")
	if rewritten != len(stmts)+len(nodes) {
		t.Fatalf("rewrote %d keys, want %d", rewritten, len(stmts)+len(nodes))
	}

	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		dst, err := NewSession(cfg, src.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadState(bytes.NewReader(legacy)); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		spent := dst.AverageSpent()
		for _, q := range stmts {
			if a, err := dst.Answer(q); err != nil || a.Source != SourceExactHit {
				t.Fatalf("%d shards: %s after a textual-key restore: %+v, %v", shards, q, a, err)
			}
		}
		if dst.AverageSpent() != spent {
			t.Fatalf("%d shards: the restored hits paid", shards)
		}
		for _, q := range nodes {
			s, _, _ := q.Window()
			version, _ := src.Dataset().RangeVersion(s, s)
			if e, ok := dst.Tree().Cache().Get(q, version); !ok || e.Value != 0.5 {
				t.Fatalf("%d shards: node cache lost %s: %+v %v", shards, q, e, ok)
			}
		}
	}
}

// TestLoadStateRefusesBadCacheEntry: a session-exact key whose window does
// not decode, and a value that does not decode, are each refused before
// any section restores — a SectionError quoting the key, not
// ErrStateCorrupt. The books stay empty, and the session keeps serving:
// the intact snapshot then restores into it and its statements hit.
func TestLoadStateRefusesBadCacheEntry(t *testing.T) {
	cfg, stmts, _, raw, src := keyedSession(t)
	for _, garble := range []string{"key", "value"} {
		var quoted string
		bad := rewriteSnapshot(t, raw, func(_ string, sec *cacheSection) any {
			st := sec.Stripes[len(sec.Stripes)-1]
			if garble == "key" {
				st.Keys[0] = "\x07junk"
			} else {
				st.Vals[0] = []byte{1, 2, 3}
			}
			quoted = fmt.Sprintf("%q", st.Keys[0])
			return sec
		}, "cache/session-exact")

		dst, err := NewSession(cfg, src.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		err = dst.LoadState(bytes.NewReader(bad))
		var se *persist.SectionError
		if !errors.As(err, &se) || se.Section != "cache/session-exact" || errors.Is(err, ErrStateCorrupt) || !strings.Contains(err.Error(), quoted) {
			t.Fatalf("garbled %s: %v, want a pure refusal of cache/session-exact quoting %s", garble, err, quoted)
		}
		for p := 0; p < dst.Dataset().Partitions(); p++ {
			if spent := dst.Accountant().SpentAt(p); spent != 0 {
				t.Fatalf("garbled %s: partition %d reads %g spent after the refusal", garble, p, spent)
			}
		}
		if err := dst.LoadState(bytes.NewReader(raw)); err != nil {
			t.Fatalf("garbled %s: the intact snapshot after the refusal: %v", garble, err)
		}
		for _, q := range stmts {
			if a, err := dst.Answer(q); err != nil || a.Source != SourceExactHit {
				t.Fatalf("garbled %s: %s after the intact restore: %+v, %v", garble, q, a, err)
			}
		}
	}
}
