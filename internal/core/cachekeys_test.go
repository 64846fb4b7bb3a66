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
// store in payload — what MemoryBytes counts and -store-max-mb bounds: a
// 7-byte packed key and the 25-byte entry, 32 in all.
func TestColdReleasePayloadBytes(t *testing.T) {
	ds, batches := coldBatches(t)
	s := coldSession(t, ds)
	stmts := runCold(t, s, batches)
	st := s.StoreStats()
	if st.Entries != stmts {
		t.Fatalf("the store holds %d entries for %d cold statements", st.Entries, stmts)
	}
	if per := float64(st.Bytes) / float64(st.Entries); per > 32 {
		t.Fatalf("%.1f payload bytes per cached release, want <= 32", per)
	}
}

// cacheStripe mirrors one block of cache.Exact's snapshot payload, so a
// test can rewrite what a damaged file, or an older build's, would hold.
type cacheStripe struct {
	Index int
	Keys  []string
	Vals  [][]byte
}

// decodeCacheSection and encodeCacheSection mirror cache.Exact's section
// layout: the block count, then per block its index, entry count and
// each entry's key and value as byte strings. This build writes one
// block; a build that striped the namespace by shard wrote one per
// stripe.
func decodeCacheSection(t *testing.T, p []byte) []cacheStripe {
	t.Helper()
	d := persist.NewDecoder(p)
	stripes := make([]cacheStripe, d.Count(2))
	for i := range stripes {
		stripes[i].Index = d.Int()
		for range d.Count(2) {
			stripes[i].Keys = append(stripes[i].Keys, string(d.Bytes()))
			stripes[i].Vals = append(stripes[i].Vals, d.Bytes())
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return stripes
}

func encodeCacheSection(stripes []cacheStripe) []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(stripes)))
	for _, st := range stripes {
		e.PutInt(st.Index)
		e.PutUvarint(uint64(len(st.Keys)))
		for j, k := range st.Keys {
			e.PutString(k)
			e.PutBytes(st.Vals[j])
		}
	}
	return e.Payload()
}

// rewriteSections re-writes the snapshot raw with every section's payload
// passed through edit, which returns the payload to write, then appends
// the extra sections, in order, as name and payload pairs.
func rewriteSections(t *testing.T, raw []byte, edit func(name string, p []byte) []byte, extra ...string) []byte {
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
		if err := w.WriteSection(name, edit(name, payloads[name])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if err := w.WriteSection(extra[i], []byte(extra[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stripeExactSection re-lays the snapshot raw's cache/session-exact
// section as n blocks, dealing its entries round robin, the shape of a
// section an n-shard build wrote.
func stripeExactSection(t *testing.T, raw []byte, n int) []byte {
	t.Helper()
	return rewriteSections(t, raw, func(name string, p []byte) []byte {
		if name != "cache/session-exact" {
			return p
		}
		blocks := make([]cacheStripe, n)
		for i := range blocks {
			blocks[i].Index = i
		}
		for _, b := range decodeCacheSection(t, p) {
			for j, k := range b.Keys {
				st := &blocks[j%n]
				st.Keys = append(st.Keys, k)
				st.Vals = append(st.Vals, b.Vals[j])
			}
		}
		return encodeCacheSection(blocks)
	})
}

// keyedSession answers 16 distinct windowed statements on a partitioned
// session over 8 partitions, returning the snapshot and the statements.
func keyedSession(t *testing.T) (Config, []*query.Query, []byte, *Session) {
	dom, ds := buildDS(t, 8)
	cfg := defaultCfg(Partitioned)
	src, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []*query.Query
	for a := 0; a < 4; a++ {
		for w := 0; w < 4; w++ {
			q := query.MustNew(dom, map[int][]int{1: {a}}).WithWindow(2*w, min(7, 2*w+a))
			if _, err := src.Answer(q); err != nil {
				t.Fatal(err)
			}
			stmts = append(stmts, q)
		}
	}
	var snap bytes.Buffer
	if err := src.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	return cfg, stmts, snap.Bytes(), src
}

// TestLoadStateRefusesBadCacheEntry: a session-exact key whose window does
// not decode, and a value that does not decode, are each refused before
// any section restores — a SectionError quoting the key, not
// ErrStateCorrupt. The books stay empty, and the session keeps serving:
// the intact snapshot then restores into it and its statements hit.
func TestLoadStateRefusesBadCacheEntry(t *testing.T) {
	cfg, stmts, raw, src := keyedSession(t)
	for _, garble := range []string{"key", "value"} {
		var quoted string
		bad := rewriteSections(t, raw, func(name string, p []byte) []byte {
			if name != "cache/session-exact" {
				return p
			}
			stripes := decodeCacheSection(t, p)
			st := stripes[len(stripes)-1]
			if garble == "key" {
				st.Keys[0] = "\x07junk"
			} else {
				st.Vals[0] = []byte{1, 2, 3}
			}
			quoted = fmt.Sprintf("%q", st.Keys[0])
			return encodeCacheSection(stripes)
		})

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
			if spent := dst.Accountant().SpentVector()[p]; spent != 0 {
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

// TestLoadStateRefusesTreeNodeSection: snapshots from builds that kept a
// tree node cache carry a "cache/tree-node" section. No layer owns it any
// more, so the restore is refused with ErrUnknownSection naming it before
// any section restores: the books and the caches stay empty, and the
// session keeps serving.
func TestLoadStateRefusesTreeNodeSection(t *testing.T) {
	cfg, stmts, raw, src := keyedSession(t)
	entry := cacheStripe{Keys: []string{stmts[0].KeyWithWindow()}, Vals: [][]byte{make([]byte, 25)}}
	old := rewriteSections(t, raw, func(_ string, p []byte) []byte { return p },
		"cache/tree-node", string(encodeCacheSection([]cacheStripe{entry})))
	dst, err := NewSession(cfg, src.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	err = dst.LoadState(bytes.NewReader(old))
	if !errors.Is(err, persist.ErrUnknownSection) || errors.Is(err, ErrStateCorrupt) || !strings.Contains(err.Error(), `"cache/tree-node"`) {
		t.Fatalf("LoadState = %v, want ErrUnknownSection naming cache/tree-node", err)
	}
	for p, spent := range dst.Accountant().SpentVector() {
		if spent != 0 {
			t.Fatalf("partition %d reads %g spent after the refusal", p, spent)
		}
	}
	if n, nodes := dst.StoreStats().Entries, dst.Tree().Nodes(); n != 0 || nodes != 0 {
		t.Fatalf("the refusal left %d cached releases and %d tree nodes, want none", n, nodes)
	}
	if _, err := dst.Answer(stmts[0]); err != nil {
		t.Fatalf("the session after the refusal: %v", err)
	}
}
