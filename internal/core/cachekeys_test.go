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
// and the 25-byte entry, 48 in all.
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

// cacheStripe mirrors one stripe of cache.Exact's snapshot payload, so a
// test can rewrite what a damaged file would hold.
type cacheStripe struct {
	Index int
	Keys  []string
	Vals  [][]byte
}

// decodeCacheSection and encodeCacheSection mirror cache.Exact's section
// layout: the stripe count, then per stripe its index, entry count and
// each entry's key and value as byte strings.
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
// passed through edit, which returns the payload to write.
func rewriteSections(t *testing.T, raw []byte, edit func(name string, p []byte) []byte) []byte {
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
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestLoadStateRefusesBadCacheEntry: a session-exact key whose window does
// not decode, and a value that does not decode, are each refused before
// any section restores — a SectionError quoting the key, not
// ErrStateCorrupt. The books stay empty, and the session keeps serving:
// the intact snapshot then restores into it and its statements hit.
func TestLoadStateRefusesBadCacheEntry(t *testing.T) {
	cfg, stmts, _, raw, src := keyedSession(t)
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
