package store

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"
)

// benchEntries is the store miss_tree holds at its checkpoint.
const benchEntries = 127_000

// windowedKey is a 7- to 9-byte exact-cache key shaped like
// query.KeyWithWindow's: a window header (0x01, start and end as uvarints)
// and a one-byte bitset for each of four attributes.
func windowedKey(i int) string {
	b := binary.AppendUvarint(binary.AppendUvarint([]byte{1}, uint64(i%50)), uint64(i))
	return string(append(b, 0x03, 0x0f, 1<<(i%7), 0xff))
}

func windowedKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = windowedKey(i)
	}
	return keys
}

// fillWindowed stores one cached release under each key and returns the
// longest single Set.
func fillWindowed(tb testing.TB, s *Mem, keys []string) time.Duration {
	var longest time.Duration
	for _, k := range keys {
		start := time.Now()
		if err := s.Set(k, 1); err != nil {
			tb.Fatal(err)
		}
		longest = max(longest, time.Since(start))
	}
	return longest
}

// benchGet times Gets of a store of benchEntries releases, in random
// order: of the keys it holds, or (miss) of as many it does not, each of
// which walks its bucket.
func benchGet(b *testing.B, miss bool) {
	keys := windowedKeys(2 * benchEntries)
	s := NewMem(MemConfig{})
	fillWindowed(b, s, keys[:benchEntries])
	probe := keys[:benchEntries]
	if miss {
		probe = keys[benchEntries:]
	}
	perm := rand.New(rand.NewSource(1)).Perm(benchEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(probe[perm[i%len(perm)]]); ok == miss {
			b.Fatalf("Get = %v", ok)
		}
	}
}

func BenchmarkMemGetHit(b *testing.B)  { benchGet(b, false) }
func BenchmarkMemGetMiss(b *testing.B) { benchGet(b, true) }

// BenchmarkMemFill fills an empty store per iteration. B/op is what the
// fill allocated on the Go heap: on mapped pages no chunk or table, only
// the page set's record of them. resident-B/entry is what the store holds;
// max-set-ns is the longest single Set (the doubling that relinks the
// store's records under its lock, unless a collection lands on a longer
// one), the least over the iterations.
func BenchmarkMemFill(b *testing.B) {
	keys := windowedKeys(benchEntries)
	longest := time.Duration(math.MaxInt64)
	var resident int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewMem(MemConfig{})
		longest = min(longest, fillWindowed(b, s, keys))
		resident = s.Stats().ResidentBytes
	}
	b.ReportMetric(float64(resident)/benchEntries, "resident-B/entry")
	b.ReportMetric(float64(longest.Nanoseconds()), "max-set-ns")
}
