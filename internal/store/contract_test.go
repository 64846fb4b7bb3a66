package store

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// contractBackends are the constructors TestBackendContract runs over: the
// contract is one, so its test is one.
var contractBackends = []struct {
	name, stats string
	open        func(t *testing.T) Backend
}{
	{"mem", "striped-map", func(t *testing.T) Backend { return NewMem(MemConfig{}) }},
	// Caps far above anything the contract stores: the policy runs, nothing
	// is ever evicted.
	{"mem-capped", "bounded-slru", func(t *testing.T) Backend {
		return NewMem(MemConfig{MaxBytes: 1 << 30, MaxEntries: 1 << 20})
	}},
}

// TestBackendContract pins what every caching layer relies on, identically
// for every Backend.
func TestBackendContract(t *testing.T) {
	for _, bc := range contractBackends {
		sub := func(name string, fn func(t *testing.T, b Backend)) {
			t.Run(bc.name+"/"+name, func(t *testing.T) { fn(t, bc.open(t)) })
		}

		sub("round-trip", func(t *testing.T, b Backend) {
			in := fastEntry{Value: 7, Eps: 2.5, Version: 3}
			if err := b.Set("ns", "k", in); err != nil {
				t.Fatal(err)
			}
			var out fastEntry
			if ok, err := b.Get("ns", "k", &out); err != nil || !ok || in != out {
				t.Fatalf("Get = %+v, %v, %v", out, ok, err)
			}
			if ok, err := b.Get("ns", "absent", &out); ok || err != nil {
				t.Fatalf("Get of a missing key = %v, %v", ok, err)
			}
		})

		sub("namespaces", func(t *testing.T, b Backend) {
			_ = b.Set("a", "k", num(1))
			_ = b.Set("b", "k", num(2))
			var v num
			if ok, _ := b.Get("a", "k", &v); !ok || v != 1 {
				t.Fatalf("ns a: %v %d", ok, v)
			}
			if ok, _ := b.Get("b", "k", &v); !ok || v != 2 {
				t.Fatalf("ns b: %v %d", ok, v)
			}
			if keys := b.Keys("a"); !reflect.DeepEqual(keys, []string{"k"}) {
				t.Fatalf("Keys(a) = %v", keys)
			}
		})

		sub("keys-sorted-prefix-safe", func(t *testing.T, b Backend) {
			for _, k := range []string{"c", "a", "b"} {
				_ = b.Set("ns", k, num(1))
			}
			_ = b.Set("nsx", "d", num(1)) // different namespace sharing a prefix
			if keys := b.Keys("ns"); !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
				t.Fatalf("Keys = %v", keys)
			}
		})

		sub("delete-version-len", func(t *testing.T, b Backend) {
			if b.Len() != 0 || b.MemoryBytes() != 0 {
				t.Fatal("fresh store not empty")
			}
			_ = b.Set("ns", "k", num(1))
			if b.Len() != 1 {
				t.Fatalf("after set: len=%d", b.Len())
			}
			if !b.Delete("ns", "k") {
				t.Fatal("Delete existing returned false")
			}
			if b.Delete("ns", "k") {
				t.Fatal("Delete missing returned true")
			}
			if b.Len() != 0 {
				t.Fatalf("after delete: len=%d", b.Len())
			}
			var v num
			if ok, _ := b.Get("ns", "k", &v); ok {
				t.Fatal("deleted key still present")
			}
		})

		sub("memory-bytes", func(t *testing.T, b Backend) {
			_ = b.Set("ns", "k", text(strings.Repeat("v", 800)))
			if b.MemoryBytes() < 800 {
				t.Fatalf("MemoryBytes = %d, want ≥ 800", b.MemoryBytes())
			}
			st := b.Stats()
			if st.Bytes != b.MemoryBytes() || st.Entries != 1 {
				t.Fatalf("Stats = %+v, MemoryBytes %d", st, b.MemoryBytes())
			}
			if st.Bytes <= 0 || st.ResidentBytes < st.Bytes {
				t.Fatalf("ResidentBytes = %d beside %d payload bytes", st.ResidentBytes, st.Bytes)
			}
		})

		sub("stats", func(t *testing.T, b Backend) {
			_ = b.Set("ns", "k", num(1))
			var out num
			_, _ = b.Get("ns", "k", &out)      // hit
			_, _ = b.Get("ns", "absent", &out) // miss
			b.Delete("ns", "k")
			st := b.Stats()
			if st.Backend != bc.stats {
				t.Fatalf("backend name %q, want %q", st.Backend, bc.stats)
			}
			if st.Hits != 1 || st.Misses != 1 || st.Sets != 1 || st.Deletes != 1 || st.Evictions != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if capped := bc.name == "mem-capped"; (st.CapBytes != 0) != capped || (st.CapEntries != 0) != capped {
				t.Fatalf("caps reported = %d B, %d entries", st.CapBytes, st.CapEntries)
			}
		})

		// Nothing is evicted while the store is under its caps.
		sub("no-eviction-under-cap", func(t *testing.T, b Backend) {
			for i := 0; i < 1000; i++ {
				if err := b.Set("ns", fmt.Sprintf("k%d", i), num(i)); err != nil {
					t.Fatal(err)
				}
			}
			if b.Len() != 1000 {
				t.Fatalf("Len = %d", b.Len())
			}
		})

		sub("compare-delete", func(t *testing.T, b Backend) {
			if err := b.Set("ns", "k", num(42)); err != nil {
				t.Fatal(err)
			}
			if b.CompareDelete("ns", "k", num(41)) {
				t.Fatal("deleted on mismatched value")
			}
			var got num
			if ok, _ := b.Get("ns", "k", &got); !ok || got != 42 {
				t.Fatalf("entry lost after mismatched CompareDelete: %v %d", ok, got)
			}
			if !b.CompareDelete("ns", "k", num(42)) {
				t.Fatal("matched CompareDelete refused")
			}
			if ok, _ := b.Get("ns", "k", &got); ok {
				t.Fatal("entry survived matched CompareDelete")
			}
			if b.CompareDelete("ns", "missing", num(1)) {
				t.Fatal("deleted a missing key")
			}
		})

		sub("export-import", func(t *testing.T, b Backend) {
			for i := 0; i < 20; i++ {
				_ = b.Set("a", fmt.Sprintf("k%d", i), num(i))
			}
			_ = b.Set("other", "x", num(9))
			data := b.ExportNamespace("a")
			if len(data) != 20 || !reflect.DeepEqual(data["k4"], num(4).AppendFast(nil)) {
				t.Fatalf("exported %d keys, k4 %x", len(data), data["k4"])
			}

			r := bc.open(t)
			_ = r.Set("a", "stale", num(7))
			_ = r.Set("other", "keep", num(8))
			r.ImportNamespace("a", data)
			var out num
			for i := 0; i < 20; i++ {
				if ok, _ := r.Get("a", fmt.Sprintf("k%d", i), &out); !ok || int(out) != i {
					t.Fatalf("imported k%d = %+v ok=%v", i, out, ok)
				}
			}
			if ok, _ := r.Get("a", "stale", &out); ok {
				t.Fatal("import kept pre-existing namespace keys")
			}
			if ok, _ := r.Get("other", "keep", &out); !ok || out != 8 {
				t.Fatal("import touched a foreign namespace")
			}
			if again := r.ExportNamespace("a"); !reflect.DeepEqual(again, data) {
				t.Fatalf("export did not round-trip: %x", again)
			}
			r.ImportNamespace("a", map[string][]byte{"solo": data["k0"]})
			if keys := r.Keys("a"); !reflect.DeepEqual(keys, []string{"solo"}) {
				t.Fatalf("namespace a after a replacing import: %v", keys)
			}
		})

		// Bytes that fail to decode are a miss plus an error, the corrupt
		// entry is deleted (so the key is re-fillable instead of wedged),
		// and the decode-error counter records the event.
		sub("poisoned-entry-deleted", func(t *testing.T, b Backend) {
			_ = b.Set("ns", "k", text("a string"))
			var out num
			if ok, err := b.Get("ns", "k", &out); ok || err == nil {
				t.Fatalf("poisoned Get = %v, %v; want miss plus error", ok, err)
			}
			var str text
			if found, _ := b.Get("ns", "k", &str); found {
				t.Fatal("poisoned entry left resident")
			}
			if st := b.Stats(); st.DecodeErrors != 1 || st.Hits != 0 {
				t.Fatalf("stats after a poisoned read: %+v", st)
			}
			if err := b.Set("ns", "k", num(7)); err != nil {
				t.Fatal(err)
			}
			if found, err := b.Get("ns", "k", &out); err != nil || !found || out != 7 {
				t.Fatalf("key not re-fillable after poison delete: %v %v %d", found, err, out)
			}
		})
	}
}
