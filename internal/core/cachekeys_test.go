package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/query"
)

// TestColdReleasePayloadBytes pins what one cached covid release costs the
// store in payload — what MemoryBytes counts and -store-max-mb bounds: a
// 7-byte packed key and the 8-byte value, 15 in all.
func TestColdReleasePayloadBytes(t *testing.T) {
	ds, batches := coldBatches(t)
	s := coldSession(t, ds)
	stmts := runCold(t, s, batches)
	st := s.StoreStats()
	if st.Entries != stmts {
		t.Fatalf("the store holds %d entries for %d cold statements", st.Entries, stmts)
	}
	if per := float64(st.Bytes) / float64(st.Entries); per > 15 {
		t.Fatalf("%.1f payload bytes per cached release, want <= 15", per)
	}
}

// cacheSection mirrors cache.Exact's snapshot payload, so a test can
// rewrite what a damaged file would hold.
type cacheSection struct {
	Keys []string
	Vals []float64
}

// decodeCacheSection and encodeCacheSection mirror cache.Exact's section
// layout: the entry count, then each entry's key as a byte string and its
// value as a float64.
func decodeCacheSection(t *testing.T, p []byte) cacheSection {
	t.Helper()
	d := persist.NewDecoder(p)
	var sec cacheSection
	for range d.Count(9) {
		sec.Keys = append(sec.Keys, string(d.Bytes()))
		sec.Vals = append(sec.Vals, d.Float())
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return sec
}

func encodeCacheSection(sec cacheSection) []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(sec.Keys)))
	for j, k := range sec.Keys {
		e.PutString(k)
		e.PutFloat(sec.Vals[j])
	}
	return e.Payload()
}

// rewriteSections re-writes the snapshot raw with every section's payload
// passed through edit, which returns the payload to write, then appends
// the extra sections, in order, as name and payload pairs. The sections
// are written in name order: Load stages in registration order whatever
// the stream's.
func rewriteSections(t *testing.T, raw []byte, edit func(name string, p []byte) []byte, extra ...string) []byte {
	t.Helper()
	payloads, err := persist.ReadSections(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	order := slices.Sorted(maps.Keys(payloads))
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
// not decode, and a value that is NaN or infinite — no release is, and no
// response can carry one — are each refused before any section restores:
// a SectionError quoting the key. The books and the cache stay empty, and
// the session keeps serving: the intact snapshot then restores into it
// and its statements hit. A non-finite value was restored, and every
// later hit on its key answered 500.
func TestLoadStateRefusesBadCacheEntry(t *testing.T) {
	cfg, stmts, raw, src := keyedSession(t)
	for garble, value := range map[string]float64{"key": 0, "NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		var quoted string
		bad := rewriteSections(t, raw, func(name string, p []byte) []byte {
			if name != "cache/session-exact" {
				return p
			}
			sec := decodeCacheSection(t, p)
			last := len(sec.Keys) - 1
			if garble == "key" {
				sec.Keys[last] = "\x07junk"
			} else {
				sec.Vals[last] = value
			}
			quoted = fmt.Sprintf("%q", sec.Keys[last])
			return encodeCacheSection(sec)
		})

		dst, err := NewSession(cfg, src.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		err = dst.LoadState(bytes.NewReader(bad))
		var se *persist.SectionError
		if !errors.As(err, &se) || se.Section != "cache/session-exact" || !strings.Contains(err.Error(), quoted) {
			t.Fatalf("garbled %s: %v, want a pure refusal of cache/session-exact quoting %s", garble, err, quoted)
		}
		for p := 0; p < dst.Dataset().Partitions(); p++ {
			if spent := dst.Accountant().SpentVector()[p]; spent != 0 {
				t.Fatalf("garbled %s: partition %d reads %g spent after the refusal", garble, p, spent)
			}
		}
		if n := dst.StoreStats().Entries; n != 0 {
			t.Fatalf("garbled %s: the refusal left %d cached releases", garble, n)
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
	// The section as those builds wrote it: one stripe block (its index,
	// then its entries) holding one 25-byte entry.
	var node persist.Encoder
	node.PutUvarint(1)
	node.PutInt(0)
	node.PutUvarint(1)
	node.PutString(stmts[0].KeyWithWindow())
	node.PutBytes(make([]byte, 25))
	old := rewriteSections(t, raw, func(_ string, p []byte) []byte { return p },
		"cache/tree-node", string(node.Payload()))
	dst, err := NewSession(cfg, src.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	err = dst.LoadState(bytes.NewReader(old))
	if !errors.Is(err, persist.ErrUnknownSection) || !strings.Contains(err.Error(), `"cache/tree-node"`) {
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
