package store

import (
	"fmt"
	"math"
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
			// Every float64 comes back bit for bit, the zero's sign too.
			for _, in := range []float64{7, 0, math.Copysign(0, -1), -1.5e-300, math.SmallestNonzeroFloat64, math.MaxFloat64} {
				if err := b.Set("k", in); err != nil {
					t.Fatal(err)
				}
				if out, ok := b.Get("k"); !ok || math.Float64bits(out) != math.Float64bits(in) {
					t.Fatalf("Get = %v, %v; want %v", out, ok, in)
				}
			}
			if out, ok := b.Get("absent"); ok || out != 0 {
				t.Fatalf("Get of a missing key = %v, %v", out, ok)
			}
		})

		// Keys are bytes: one that is a prefix of another, or that differs
		// only past a NUL, is its own entry, and Export lists each once.
		sub("keys-sorted-prefix-safe", func(t *testing.T, b Backend) {
			keys := []string{"c", "a", "ab", "a\x00", "b"}
			for i, k := range keys {
				_ = b.Set(k, float64(i))
			}
			got := exportedKeys(b)
			if want := []string{"a", "a\x00", "ab", "b", "c"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("exported keys %q, want %q", got, want)
			}
			for i, k := range keys {
				if v, ok := b.Get(k); !ok || v != float64(i) {
					t.Fatalf("key %q = %v %v, want %d", k, ok, v, i)
				}
			}
		})

		sub("delete-version-len", func(t *testing.T, b Backend) {
			if b.Stats().Entries != 0 || b.MemoryBytes() != 0 {
				t.Fatal("fresh store not empty")
			}
			_ = b.Set("k", 1)
			if n := b.Stats().Entries; n != 1 {
				t.Fatalf("after set: %d entries", n)
			}
			// The store has no delete: a clearing Import is how a key
			// leaves it, other than by eviction.
			b.Import(nil)
			if n := b.Stats().Entries; n != 0 || b.MemoryBytes() != 0 {
				t.Fatalf("after clearing: %d entries, %d bytes", n, b.MemoryBytes())
			}
			if _, ok := b.Get("k"); ok {
				t.Fatal("cleared key still present")
			}
		})

		sub("memory-bytes", func(t *testing.T, b Backend) {
			k := strings.Repeat("k", 800)
			_ = b.Set(k, 1)
			_ = b.Set(k, 2) // in place: the payload does not grow
			if b.MemoryBytes() != len(k)+8 {
				t.Fatalf("MemoryBytes = %d, want the key's %d bytes and 8", b.MemoryBytes(), len(k))
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
			_ = b.Set("k", 1)
			_ = b.Set(strings.Repeat("k", maxKeyLen+1), 1) // refused
			_, _ = b.Get("k")                              // hit
			_, _ = b.Get("absent")                         // miss
			st := b.Stats()
			if st.Backend != bc.stats {
				t.Fatalf("backend name %q, want %q", st.Backend, bc.stats)
			}
			if st.Hits != 1 || st.Misses != 1 || st.Sets != 1 || st.SetErrors != 1 || st.Evictions != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if capped := bc.name == "mem-capped"; (st.CapBytes != 0) != capped {
				t.Fatalf("cap reported = %d B", st.CapBytes)
			}
		})

		// Nothing is evicted while the store is under its caps.
		sub("no-eviction-under-cap", func(t *testing.T, b Backend) {
			for i := 0; i < 1000; i++ {
				if err := b.Set(fmt.Sprintf("k%d", i), float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if n := b.Stats().Entries; n != 1000 {
				t.Fatalf("%d entries", n)
			}
		})

		sub("export-import", func(t *testing.T, b Backend) {
			for i := 0; i < 20; i++ {
				_ = b.Set(fmt.Sprintf("k%d", i), float64(i))
			}
			data := b.Export()
			if len(data) != 20 || data["k4"] != 4 {
				t.Fatalf("exported %d keys, k4 %v", len(data), data["k4"])
			}

			r := bc.open(t)
			_ = r.Set("stale", 7)
			r.Import(data)
			for i := 0; i < 20; i++ {
				if v, ok := r.Get(fmt.Sprintf("k%d", i)); !ok || v != float64(i) {
					t.Fatalf("imported k%d = %v ok=%v", i, v, ok)
				}
			}
			if _, ok := r.Get("stale"); ok {
				t.Fatal("import kept a pre-existing key")
			}
			if again := r.Export(); !reflect.DeepEqual(again, data) {
				t.Fatalf("export did not round-trip: %v", again)
			}
			r.Import(map[string]float64{"solo": data["k0"]})
			if keys := exportedKeys(r); !reflect.DeepEqual(keys, []string{"solo"}) {
				t.Fatalf("keys after a replacing import: %v", keys)
			}
			r.Import(nil)
			if st := r.Stats(); st.Entries != 0 || st.Bytes != 0 || len(r.Export()) != 0 {
				t.Fatalf("Import(nil) left %d entries, %d bytes", st.Entries, st.Bytes)
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
