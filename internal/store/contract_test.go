package store

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// contractBackends are the constructors TestBackendContract runs over: the
// contract is one, so its test is one.
var contractBackends = []struct {
	name, stats string
	open        func(t *testing.T) Backend
}{
	{"mem", "arena", func(t *testing.T) Backend { return NewMem(MemConfig{}) }},
	// A cap far above anything the contract stores: the policy runs,
	// nothing is ever evicted.
	{"mem-capped", "bounded-slru", func(t *testing.T) Backend {
		return NewMem(MemConfig{MaxBytes: 1 << 30})
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
			if err := b.Set("k", in); err != nil {
				t.Fatal(err)
			}
			var out fastEntry
			if ok, err := b.Get("k", &out); err != nil || !ok || in != out {
				t.Fatalf("Get = %+v, %v, %v", out, ok, err)
			}
			if ok, err := b.Get("absent", &out); ok || err != nil {
				t.Fatalf("Get of a missing key = %v, %v", ok, err)
			}
		})

		// Keys are bytes: one that is a prefix of another, or that differs
		// only past a NUL, is its own entry, and Export lists each once.
		sub("keys-sorted-prefix-safe", func(t *testing.T, b Backend) {
			keys := []string{"c", "a", "ab", "a\x00", "b"}
			for i, k := range keys {
				_ = b.Set(k, num(i))
			}
			got := exportedKeys(b)
			if want := []string{"a", "a\x00", "ab", "b", "c"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("exported keys %q, want %q", got, want)
			}
			var v num
			for i, k := range keys {
				if ok, _ := b.Get(k, &v); !ok || int(v) != i {
					t.Fatalf("key %q = %v %d, want %d", k, ok, v, i)
				}
			}
		})

		sub("delete-version-len", func(t *testing.T, b Backend) {
			if b.Stats().Entries != 0 || b.MemoryBytes() != 0 {
				t.Fatal("fresh store not empty")
			}
			_ = b.Set("k", num(1))
			if n := b.Stats().Entries; n != 1 {
				t.Fatalf("after set: %d entries", n)
			}
			if !b.CompareDelete("k", num(1)) {
				t.Fatal("CompareDelete of the stored value returned false")
			}
			if b.CompareDelete("k", num(1)) {
				t.Fatal("CompareDelete of a missing key returned true")
			}
			if n := b.Stats().Entries; n != 0 || b.MemoryBytes() != 0 {
				t.Fatalf("after delete: %d entries, %d bytes", n, b.MemoryBytes())
			}
			var v num
			if ok, _ := b.Get("k", &v); ok {
				t.Fatal("deleted key still present")
			}
		})

		sub("memory-bytes", func(t *testing.T, b Backend) {
			_ = b.Set("k", text(strings.Repeat("v", 800)))
			if b.MemoryBytes() != len("k")+len("t")+800 {
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
			_ = b.Set("k", num(1))
			_ = b.Set(strings.Repeat("k", maxKeyLen+1), num(1)) // refused
			var out num
			_, _ = b.Get("k", &out)      // hit
			_, _ = b.Get("absent", &out) // miss
			b.CompareDelete("k", num(1))
			st := b.Stats()
			if st.Backend != bc.stats {
				t.Fatalf("backend name %q, want %q", st.Backend, bc.stats)
			}
			if st.Hits != 1 || st.Misses != 1 || st.Sets != 1 || st.SetErrors != 1 || st.Deletes != 1 || st.Evictions != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if capped := bc.name == "mem-capped"; (st.CapBytes != 0) != capped {
				t.Fatalf("cap reported = %d B", st.CapBytes)
			}
		})

		// Nothing is evicted while the store is under its caps.
		sub("no-eviction-under-cap", func(t *testing.T, b Backend) {
			for i := 0; i < 1000; i++ {
				if err := b.Set(fmt.Sprintf("k%d", i), num(i)); err != nil {
					t.Fatal(err)
				}
			}
			if n := b.Stats().Entries; n != 1000 {
				t.Fatalf("%d entries", n)
			}
		})

		sub("compare-delete", func(t *testing.T, b Backend) {
			if err := b.Set("k", num(42)); err != nil {
				t.Fatal(err)
			}
			if b.CompareDelete("k", num(41)) {
				t.Fatal("deleted on mismatched value")
			}
			var got num
			if ok, _ := b.Get("k", &got); !ok || got != 42 {
				t.Fatalf("entry lost after mismatched CompareDelete: %v %d", ok, got)
			}
			if !b.CompareDelete("k", num(42)) {
				t.Fatal("matched CompareDelete refused")
			}
			if ok, _ := b.Get("k", &got); ok {
				t.Fatal("entry survived matched CompareDelete")
			}
			if b.CompareDelete("missing", num(1)) {
				t.Fatal("deleted a missing key")
			}
		})

		sub("export-import", func(t *testing.T, b Backend) {
			for i := 0; i < 20; i++ {
				_ = b.Set(fmt.Sprintf("k%d", i), num(i))
			}
			data := b.Export()
			if len(data) != 20 || !reflect.DeepEqual(data["k4"], num(4).AppendFast(nil)) {
				t.Fatalf("exported %d keys, k4 %x", len(data), data["k4"])
			}

			r := bc.open(t)
			_ = r.Set("stale", num(7))
			r.Import(data)
			var out num
			for i := 0; i < 20; i++ {
				if ok, _ := r.Get(fmt.Sprintf("k%d", i), &out); !ok || int(out) != i {
					t.Fatalf("imported k%d = %+v ok=%v", i, out, ok)
				}
			}
			if ok, _ := r.Get("stale", &out); ok {
				t.Fatal("import kept a pre-existing key")
			}
			if again := r.Export(); !reflect.DeepEqual(again, data) {
				t.Fatalf("export did not round-trip: %x", again)
			}
			r.Import(map[string][]byte{"solo": data["k0"]})
			if keys := exportedKeys(r); !reflect.DeepEqual(keys, []string{"solo"}) {
				t.Fatalf("keys after a replacing import: %v", keys)
			}
			r.Import(nil)
			if st := r.Stats(); st.Entries != 0 || st.Bytes != 0 || len(r.Export()) != 0 {
				t.Fatalf("Import(nil) left %d entries, %d bytes", st.Entries, st.Bytes)
			}
		})

		// Bytes that fail to decode are a miss plus an error, the corrupt
		// entry is deleted (so the key is re-fillable instead of wedged),
		// and the decode-error counter records the event.
		sub("poisoned-entry-deleted", func(t *testing.T, b Backend) {
			_ = b.Set("k", text("a string"))
			var out num
			if ok, err := b.Get("k", &out); ok || err == nil {
				t.Fatalf("poisoned Get = %v, %v; want miss plus error", ok, err)
			}
			var str text
			if found, _ := b.Get("k", &str); found {
				t.Fatal("poisoned entry left resident")
			}
			if st := b.Stats(); st.DecodeErrors != 1 || st.Hits != 0 {
				t.Fatalf("stats after a poisoned read: %+v", st)
			}
			if err := b.Set("k", num(7)); err != nil {
				t.Fatal(err)
			}
			if found, err := b.Get("k", &out); err != nil || !found || out != 7 {
				t.Fatalf("key not re-fillable after poison delete: %v %v %d", found, err, out)
			}
		})
	}
}

// exportedKeys is the sorted keys of b's export.
func exportedKeys(b Backend) []string {
	var out []string
	for k := range b.Export() {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
