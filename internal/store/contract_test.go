package store

import (
	"fmt"
	"reflect"
	"testing"
)

type payload struct {
	X int
	S string
	V []float64
}

// setClock substitutes a backend's lease clock.
type setClock func(now func() int64)

// contractBackends are the constructors TestBackendContract runs over: the
// contract is one, so its test is one.
var contractBackends = []struct {
	name, stats string
	open        func(t *testing.T) (Backend, setClock)
}{
	{"mem", "striped-map", func(t *testing.T) (Backend, setClock) {
		s := NewMem(MemConfig{})
		return s, func(now func() int64) { s.nowNanos = now }
	}},
	// Caps far above anything the contract stores: the policy runs, nothing
	// is ever evicted.
	{"mem-capped", "bounded-slru", func(t *testing.T) (Backend, setClock) {
		s := NewMem(MemConfig{MaxBytes: 1 << 30, MaxEntries: 1 << 20})
		return s, func(now func() int64) { s.nowNanos = now }
	}},
	{"file", "file-log", func(t *testing.T) (Backend, setClock) {
		f := newTestFile(t, FileConfig{})
		return f, func(now func() int64) { f.nowNanos = now }
	}},
}

// TestBackendContract pins what every caching layer relies on, identically
// for every Backend.
func TestBackendContract(t *testing.T) {
	for _, bc := range contractBackends {
		sub := func(name string, fn func(t *testing.T, b Backend, clock setClock)) {
			t.Run(bc.name+"/"+name, func(t *testing.T) {
				b, clock := bc.open(t)
				fn(t, b, clock)
			})
		}

		sub("round-trip", func(t *testing.T, b Backend, _ setClock) {
			in := payload{X: 7, S: "hi", V: []float64{1, 2.5}}
			if err := b.Set("ns", "k", in); err != nil {
				t.Fatal(err)
			}
			var out payload
			if ok, err := b.Get("ns", "k", &out); err != nil || !ok || !reflect.DeepEqual(in, out) {
				t.Fatalf("Get = %+v, %v, %v", out, ok, err)
			}
			if ok, err := b.Get("ns", "absent", &out); ok || err != nil {
				t.Fatalf("Get of a missing key = %v, %v", ok, err)
			}
		})

		sub("namespaces", func(t *testing.T, b Backend, _ setClock) {
			_ = b.Set("a", "k", 1)
			_ = b.Set("b", "k", 2)
			var v int
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

		sub("keys-sorted-prefix-safe", func(t *testing.T, b Backend, _ setClock) {
			for _, k := range []string{"c", "a", "b"} {
				_ = b.Set("ns", k, 1)
			}
			_ = b.Set("nsx", "d", 1) // different namespace sharing a prefix
			if keys := b.Keys("ns"); !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
				t.Fatalf("Keys = %v", keys)
			}
		})

		sub("delete-version-len", func(t *testing.T, b Backend, _ setClock) {
			if b.Version() != 0 || b.Len() != 0 || b.MemoryBytes() != 0 {
				t.Fatal("fresh store not empty")
			}
			_ = b.Set("ns", "k", 1)
			if b.Version() != 1 || b.Len() != 1 {
				t.Fatalf("after set: version=%d len=%d", b.Version(), b.Len())
			}
			if !b.Delete("ns", "k") {
				t.Fatal("Delete existing returned false")
			}
			if b.Delete("ns", "k") {
				t.Fatal("Delete missing returned true")
			}
			if b.Version() != 2 || b.Len() != 0 {
				t.Fatalf("after delete: version=%d len=%d", b.Version(), b.Len())
			}
			var v int
			if ok, _ := b.Get("ns", "k", &v); ok {
				t.Fatal("deleted key still present")
			}
		})

		sub("memory-bytes", func(t *testing.T, b Backend, _ setClock) {
			vals := make([]float64, 100)
			for i := range vals {
				vals[i] = 0.1 + float64(i) // non-zero so gob can't elide them
			}
			_ = b.Set("ns", "k", payload{V: vals})
			if b.MemoryBytes() < 800 {
				t.Fatalf("MemoryBytes = %d, want ≥ 800", b.MemoryBytes())
			}
			st := b.Stats()
			if st.Bytes != b.MemoryBytes() || st.Entries != 1 {
				t.Fatalf("Stats = %+v, MemoryBytes %d", st, b.MemoryBytes())
			}
			// Mem counts what it holds; File's index is uncounted and reads 0.
			if isFile := bc.name == "file"; (st.ResidentBytes == 0) != isFile || !isFile && st.ResidentBytes < st.Bytes {
				t.Fatalf("ResidentBytes = %d beside %d payload bytes", st.ResidentBytes, st.Bytes)
			}
		})

		sub("stats", func(t *testing.T, b Backend, _ setClock) {
			_ = b.Set("ns", "k", 1)
			var out int
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

		// Nothing is evicted while the store is under its caps, whatever
		// the weights.
		sub("no-eviction-under-cap", func(t *testing.T, b Backend, _ setClock) {
			for i := 0; i < 1000; i++ {
				if err := b.SetWeighted("ns", fmt.Sprintf("k%d", i), i, 0); err != nil {
					t.Fatal(err)
				}
			}
			if b.Len() != 1000 {
				t.Fatalf("Len = %d", b.Len())
			}
		})

		sub("setnx-guard", func(t *testing.T, b Backend, _ setClock) {
			if stored, err := b.SetNX("ns", "k", 1); err != nil || !stored {
				t.Fatalf("first SetNX = %v, %v", stored, err)
			}
			if stored, err := b.SetNX("ns", "k", 2); err != nil || stored {
				t.Fatalf("second SetNX = %v, %v", stored, err)
			}
			var out int
			if ok, _ := b.Get("ns", "k", &out); !ok || out != 1 {
				t.Fatalf("SetNX overwrote: %d", out)
			}
		})

		sub("compare-delete", func(t *testing.T, b Backend, _ setClock) {
			if err := b.Set("ns", "k", 42); err != nil {
				t.Fatal(err)
			}
			if b.CompareDelete("ns", "k", 41) {
				t.Fatal("deleted on mismatched value")
			}
			var got int
			if ok, _ := b.Get("ns", "k", &got); !ok || got != 42 {
				t.Fatalf("entry lost after mismatched CompareDelete: %v %d", ok, got)
			}
			if !b.CompareDelete("ns", "k", 42) {
				t.Fatal("matched CompareDelete refused")
			}
			if ok, _ := b.Get("ns", "k", &got); ok {
				t.Fatal("entry survived matched CompareDelete")
			}
			if b.CompareDelete("ns", "missing", 1) {
				t.Fatal("deleted a missing key")
			}
		})

		// A live lease excludes rivals, CompareSwap renews by the original
		// ttl, and an expired lease counts as absent everywhere (Get,
		// CompareSwap, CompareDelete, SetNXLease takeover).
		sub("lease", func(t *testing.T, b Backend, clock setClock) {
			var now int64
			clock(func() int64 { return now })
			if ok, err := b.SetNXLease("ns", "lease", "holder-1", 100); !ok || err != nil {
				t.Fatalf("SetNXLease = %v, %v", ok, err)
			}
			var holder string
			if ok, _ := b.Get("ns", "lease", &holder); !ok || holder != "holder-1" {
				t.Fatalf("live lease Get = %v %q", ok, holder)
			}
			if ok, _ := b.SetNXLease("ns", "lease", "holder-2", 100); ok {
				t.Fatal("rival stole a live lease")
			}
			if _, ok := b.ExportNamespace("ns")["lease"]; ok {
				t.Fatal("unexpired lease exported")
			}
			now = 80
			if ok, err := b.CompareSwap("ns", "lease", "holder-1", "holder-1"); !ok || err != nil {
				t.Fatalf("renewal CompareSwap = %v, %v", ok, err)
			}
			now = 150 // past the original deadline, inside the renewed one
			if ok, _ := b.Get("ns", "lease", &holder); !ok || holder != "holder-1" {
				t.Fatalf("renewed lease = %v %q", ok, holder)
			}
			now = 300
			if keys := b.Keys("ns"); len(keys) != 0 {
				t.Fatalf("Keys lists an expired lease: %v", keys)
			}
			if b.CompareDelete("ns", "lease", "holder-1") {
				t.Fatal("CompareDelete released an expired lease")
			}
			if ok, _ := b.CompareSwap("ns", "lease", "holder-1", "holder-1"); ok {
				t.Fatal("CompareSwap succeeded on an expired lease")
			}
			if ok, _ := b.Get("ns", "lease", &holder); ok {
				t.Fatal("expired lease still readable")
			}
			if ok, err := b.SetNXLease("ns", "lease", "holder-2", 100); !ok || err != nil {
				t.Fatalf("takeover after expiry = %v, %v", ok, err)
			}
			if ok, _ := b.Get("ns", "lease", &holder); !ok || holder != "holder-2" {
				t.Fatalf("post-takeover holder = %q, %v", holder, ok)
			}
			// A plain write over the lease makes it a plain entry again.
			if err := b.Set("ns", "lease", "plain"); err != nil {
				t.Fatal(err)
			}
			now = 10_000
			if ok, _ := b.Get("ns", "lease", &holder); !ok || holder != "plain" {
				t.Fatal("plain write inherited the old lease deadline")
			}
		})

		// A swap keeps the entry's eviction weight (the fill's paid ε) and
		// its pin, and matches on stored bytes only.
		sub("compare-swap-keeps-metadata", func(t *testing.T, b Backend, _ setClock) {
			_ = b.SetWeighted("ns", "k", 1, 42)
			if ok, err := b.CompareSwap("ns", "k", 1, 2); !ok || err != nil {
				t.Fatalf("CompareSwap = %v, %v", ok, err)
			}
			if ok, _ := b.CompareSwap("ns", "k", 1, 3); ok {
				t.Fatal("CompareSwap matched stale bytes")
			}
			_, _ = b.SetNX("ns", "guard", "a")
			if ok, _ := b.CompareSwap("ns", "guard", "a", "a longer value"); !ok {
				t.Fatal("CompareSwap of a guard refused")
			}
			got := b.ExportNamespace("ns")
			if got["k"].Weight != 42 || got["k"].Pinned || !got["guard"].Pinned {
				t.Fatalf("after swaps: %+v", got)
			}
		})

		sub("export-import", func(t *testing.T, b Backend, _ setClock) {
			for i := 0; i < 20; i++ {
				_ = b.SetWeighted("a", fmt.Sprintf("k%d", i), payload{X: i}, float64(i))
			}
			_, _ = b.SetNX("a", "guard", 1)
			_ = b.Set("other", "x", payload{X: 9})
			data := b.ExportNamespace("a")
			if len(data) != 21 || data["k4"].Weight != 4 || !data["guard"].Pinned || data["k4"].Pinned {
				t.Fatalf("exported %d keys, k4 %+v, guard %+v", len(data), data["k4"], data["guard"])
			}

			r, _ := bc.open(t)
			_ = r.Set("a", "stale", payload{X: 7})
			_ = r.Set("other", "keep", payload{X: 8})
			v0 := r.Version()
			r.ImportNamespace("a", data)
			if r.Version() == v0 {
				t.Fatal("ImportNamespace did not advance the version")
			}
			var out payload
			for i := 0; i < 20; i++ {
				if ok, _ := r.Get("a", fmt.Sprintf("k%d", i), &out); !ok || out.X != i {
					t.Fatalf("imported k%d = %+v ok=%v", i, out, ok)
				}
			}
			if ok, _ := r.Get("a", "stale", &out); ok {
				t.Fatal("import kept pre-existing namespace keys")
			}
			if ok, _ := r.Get("other", "keep", &out); !ok || out.X != 8 {
				t.Fatal("import touched a foreign namespace")
			}
			if again := r.ExportNamespace("a"); !reflect.DeepEqual(again, data) {
				t.Fatalf("weights or pins did not round-trip: %+v", again)
			}
			if ok, _ := r.SetNX("a", "guard", 2); ok {
				t.Fatal("imported guard does not exclude")
			}
			r.ImportNamespace("a", map[string]Exported{"solo": data["k0"]})
			if keys := r.Keys("a"); !reflect.DeepEqual(keys, []string{"solo"}) {
				t.Fatalf("namespace a after a replacing import: %v", keys)
			}
		})

		// Bytes that fail to decode are a miss plus an error, the corrupt
		// entry is deleted (so the key is re-fillable instead of wedged),
		// and the decode-error counter records the event.
		sub("poisoned-entry-deleted", func(t *testing.T, b Backend, _ setClock) {
			_ = b.Set("ns", "k", "a string")
			var out int
			if ok, err := b.Get("ns", "k", &out); ok || err == nil {
				t.Fatalf("poisoned Get = %v, %v; want miss plus error", ok, err)
			}
			var str string
			if found, _ := b.Get("ns", "k", &str); found {
				t.Fatal("poisoned entry left resident")
			}
			if st := b.Stats(); st.DecodeErrors != 1 || st.Hits != 0 {
				t.Fatalf("stats after a poisoned read: %+v", st)
			}
			if err := b.Set("ns", "k", 7); err != nil {
				t.Fatal(err)
			}
			if found, err := b.Get("ns", "k", &out); err != nil || !found || out != 7 {
				t.Fatalf("key not re-fillable after poison delete: %v %v %d", found, err, out)
			}
		})
	}
}
