// Allocation and resident-size budgets of the arena layout. Guarded out of
// race builds: race instrumentation allocates and inflates the heap, which
// would make both budgets meaningless there.

//go:build !race

package store

import (
	"fmt"
	"runtime"
	"testing"
)

// bothModes are the store uncapped and capped far above the load, so the
// policy's bookkeeping runs and nothing is evicted.
var bothModes = []struct {
	name     string
	cfg      MemConfig
	resident float64 // gate on resident bytes per entry
}{
	{"uncapped", MemConfig{}, 110},
	{"capped", MemConfig{MaxBytes: 1 << 30, MaxEntries: 1 << 24}, 120},
}

// windowedKey is a ~20-byte exact-cache key: predicate bins plus window.
func windowedKey(i int) string { return fmt.Sprintf("1=0,2|3=%d@[%d,%d]", i%7, i%50, i) }

// TestResidentBytesPerEntry is the deterministic form of the layout's
// claim: 100,000 cached releases under windowed keys in two namespaces
// cost at most 110 bytes of live heap each — records, index and chunk
// slack together — and at most 120 with the LRU links of a capped store.
// One map entry, key string, *entry and value slice per release cost 173,
// with two list elements on top 235.
func TestResidentBytesPerEntry(t *testing.T) {
	const entries = 100_000
	keys := make([]string, entries)
	keyBytes := 0
	for i := range keys {
		keys[i] = windowedKey(i)
		keyBytes += len(keys[i])
	}
	for _, mode := range bothModes {
		t.Run(mode.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s := NewMem(mode.cfg)
			for i, k := range keys {
				ns := "session-exact/0"
				if i%2 == 1 {
					ns = "tree-node"
				}
				if err := s.SetWeighted(ns, k, fastEntry{Value: float64(i), Eps: 0.1, Version: 1}, 0.1); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perEntry := float64(after.HeapAlloc-before.HeapAlloc) / entries
			t.Logf("%.1f resident bytes per entry (%.1f-byte keys, 25-byte values, %.1f payload bytes)",
				perEntry, float64(keyBytes)/entries, float64(s.MemoryBytes())/entries)
			if perEntry > mode.resident {
				t.Fatalf("%.1f resident bytes per entry, want <= %g", perEntry, mode.resident)
			}
			if s.Len() != entries {
				t.Fatalf("Len = %d", s.Len())
			}
			runtime.KeepAlive(s)
		})
	}
	runtime.KeepAlive(keys)
}

// TestSetGetAllocBudget pins the hot pair: a fill of a FastEncoder value
// allocates nothing per call beyond chunk and index growth, a re-fill of
// the same key (in place) and a FastDecoder hit allocate nothing at all.
func TestSetGetAllocBudget(t *testing.T) {
	keys := make([]string, 20_000)
	for i := range keys {
		keys[i] = windowedKey(i)
	}
	for _, mode := range bothModes {
		t.Run(mode.name, func(t *testing.T) {
			s := NewMem(mode.cfg)
			var v any = fastEntry{Value: 1, Eps: 0.1, Version: 1} // boxed once, as cache.Exact's caller pays for it
			i := 0
			if allocs := testing.AllocsPerRun(len(keys)-1, func() {
				if err := s.SetWeighted("session-exact/0", keys[i], v, 0.1); err != nil {
					t.Fatal(err)
				}
				i++
			}); allocs > 1 {
				t.Fatalf("SetWeighted of a new key allocates %.2f/op, want <= 1 amortised", allocs)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				if err := s.SetWeighted("session-exact/0", keys[7], v, 0.2); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("in-place SetWeighted allocates %.1f/op, want 0", allocs)
			}
			var out fastEntry
			if allocs := testing.AllocsPerRun(200, func() {
				if ok, err := s.Get("session-exact/0", keys[7], &out); !ok || err != nil {
					t.Fatalf("Get = %v, %v", ok, err)
				}
			}); allocs != 0 {
				t.Fatalf("Get of a FastDecoder value allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
