// Allocation and resident-size budgets of the arena layout, on mapped
// pages. Guarded out of race builds, whose arenas are on the heap and whose
// instrumentation allocates, which would make every budget meaningless.

//go:build unix && !race

package store

import (
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
	{"uncapped", MemConfig{}, 40.3},
	{"capped", MemConfig{MaxBytes: 1 << 30}, 49.6},
}

// TestResidentBytesPerEntry is the deterministic form of the layout's
// claim: cached releases under packed windowed keys cost at most 40.3
// resident bytes each — records, bucket table and chunk slack together —
// and at most 49.6 with the LRU extension of a capped store, at the worst
// of four entry counts (34.1 measured at 50,000 and 42.6 at 100,000; each
// ceiling is that plus the 6.2 and 7.0 bytes of margin the ceilings kept
// over the 25-byte value the cache once stored). One count alone can
// flatter the layout: a table is between half and exactly full, and the
// tail chunk is anywhere from empty to full. An uncapped record is a
// 10-byte header, a 7- to 9-byte key and the cache's 9-byte value; the index adds
// one 4-byte bucket per record at most, where the Go map it replaced cost
// 19 to 34. Stats().ResidentBytes must be within 5% of what the store has
// mapped, and the Go heap must grow by at most 2 bytes an entry: the arena
// is not on it.
func TestResidentBytesPerEntry(t *testing.T) {
	keys := windowedKeys(200_000)
	for _, mode := range bothModes {
		t.Run(mode.name, func(t *testing.T) {
			worst := 0.0
			for _, entries := range []int{50_000, 100_000, 127_000, 200_000} {
				var before, after runtime.MemStats
				mapped := settleMapped(t)
				runtime.ReadMemStats(&before)
				s := NewMem(mode.cfg)
				fillWindowed(t, s, keys[:entries])
				runtime.GC()
				runtime.ReadMemStats(&after)
				heap := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
				mapped = mappedBytes.Load() - mapped
				st := s.Stats()
				perEntry := float64(st.ResidentBytes) / float64(entries)
				t.Logf("%d entries: %.1f resident bytes each (%.1f mapped, %.1f payload, %.2f heap)", entries,
					perEntry, float64(mapped)/float64(entries), float64(st.Bytes)/float64(entries), heap/float64(entries))
				worst = max(worst, perEntry)
				if ratio := float64(st.ResidentBytes) / float64(mapped); ratio < 0.95 || ratio > 1.05 {
					t.Fatalf("%d entries: ResidentBytes = %d, %d bytes mapped", entries, st.ResidentBytes, mapped)
				}
				if heap > 2*float64(entries) {
					t.Fatalf("%d entries: the Go heap grew by %.0f bytes, %.2f an entry, want <= 2", entries, heap, heap/float64(entries))
				}
				if st.Entries != entries {
					t.Fatalf("%d entries", st.Entries)
				}
				runtime.KeepAlive(s)
			}
			if worst > mode.resident {
				t.Fatalf("%.1f resident bytes per entry at the worst count, want <= %g", worst, mode.resident)
			}
		})
	}
	runtime.KeepAlive(keys)
}

// TestSetGetAllocBudget pins the hot pair: a fill of a FastEncoder value
// allocates nothing per call but the page set's record of a new chunk or
// table (the bytes themselves are mapped, not allocated), a re-fill of the
// same key (in place) and a FastDecoder hit allocate nothing at all.
func TestSetGetAllocBudget(t *testing.T) {
	keys := windowedKeys(20_000)
	for _, mode := range bothModes {
		t.Run(mode.name, func(t *testing.T) {
			s := NewMem(mode.cfg)
			var v FastEncoder = fastEntry{Value: 1} // boxed once, as cache.Exact's caller pays for it
			i := 0
			if allocs := testing.AllocsPerRun(len(keys)-1, func() {
				if err := s.Set(keys[i], v); err != nil {
					t.Fatal(err)
				}
				i++
			}); allocs > 1 {
				t.Fatalf("Set of a new key allocates %.2f/op, want <= 1 amortised", allocs)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				if err := s.Set(keys[7], v); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("in-place Set allocates %.1f/op, want 0", allocs)
			}
			var out fastEntry
			if allocs := testing.AllocsPerRun(200, func() {
				if ok, err := s.Get(keys[7], &out); !ok || err != nil {
					t.Fatalf("Get = %v, %v", ok, err)
				}
			}); allocs != 0 {
				t.Fatalf("Get of a FastDecoder value allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// TestSetOpeningChunkAllocs: a fill whose record does not fit the tail
// chunk encodes its value into the store's spill, not into a throw-away
// slice, and opens a new chunk allocating nothing but its share of the
// page set's and the chunk list's growth. Chunks of 32 bytes hold one
// uncapped record each, and chunks of 64 one capped record, whose LRU
// links make it longer than 32, so every Set below opens one. Encoding
// into a new slice read 1 object a Set.
func TestSetOpeningChunkAllocs(t *testing.T) {
	keys := windowedKeys(1000)
	for _, mode := range bothModes {
		t.Run(mode.name, func(t *testing.T) {
			shift := uint(5)
			if mode.cfg.capped() {
				shift = 6
			}
			s := newMem(mode.cfg, shift, 1<<20)
			var v FastEncoder = fastEntry{Value: 1}
			i := 0
			if allocs := testing.AllocsPerRun(len(keys)-1, func() {
				chunks := len(s.chunks)
				if err := s.Set(keys[i], v); err != nil {
					t.Fatal(err)
				}
				if len(s.chunks) != chunks+1 {
					t.Fatalf("Set %d did not open a chunk", i)
				}
				i++
			}); allocs != 0 {
				t.Fatalf("a Set opening a chunk allocates %v objects, want 0", allocs)
			}
		})
	}
}
