// The page lifecycle of the mapped build: every chunk and table a store
// stops using goes back to the page source at once, and a store nobody
// references gives back the rest.

//go:build unix && !race

package store

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// settleMapped runs collections until mappedBytes holds still, so that the
// cleanups of stores earlier tests dropped have run, and returns it.
func settleMapped(t *testing.T) int64 {
	t.Helper()
	last, still := mappedBytes.Load(), 0
	for i := 0; i < 200 && still < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if now := mappedBytes.Load(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
	if still < 3 {
		t.Fatalf("mapped bytes never settled: %d", last)
	}
	return last
}

// checkHeld asserts that s's page set holds exactly its table and live
// chunks, each at the capacity the arena uses, and returns the bytes
// mapped behind them.
func checkHeld(t *testing.T, s *Mem) int64 {
	t.Helper()
	want := map[*byte]int{(*byte)(unsafe.Pointer(unsafe.SliceData(s.buckets))): 4 * len(s.buckets)}
	for _, c := range s.chunks {
		if c != nil {
			want[unsafe.SliceData(c)] = cap(c)
		}
	}
	s.pages.mu.Lock()
	defer s.pages.mu.Unlock()
	if len(s.pages.held) != len(want) {
		t.Fatalf("the page set holds %d mappings, the arena uses %d", len(s.pages.held), len(want))
	}
	var mapped int64
	resident := 0
	for first, m := range s.pages.held {
		n, ok := want[first]
		if !ok || len(m) < n || len(m) >= n+pageSize {
			t.Fatalf("the page set holds a %d-byte mapping the arena does not use as %d bytes (in use: %v)", len(m), n, ok)
		}
		mapped += int64(len(m))
		resident += n
	}
	if got := s.pages.resident.Load(); int(got) != resident {
		t.Fatalf("the page set counts %d resident bytes, its mappings hold %d", got, resident)
	}
	return mapped
}

// TestPageCompactionUnmapsOldArena pins that a compaction, successful or
// abandoned, leaves mapped only what the arena then uses.
func TestPageCompactionUnmapsOldArena(t *testing.T) {
	base := settleMapped(t)
	s := NewMem(MemConfig{})
	for i := 0; i < 20_000; i++ {
		if err := s.Set(windowedKey(i), num(i)); err != nil {
			t.Fatal(err)
		}
	}
	full := checkHeld(t, s)
	if got := mappedBytes.Load() - base; got != full {
		t.Fatalf("%d bytes mapped, the store holds %d", got, full)
	}

	// Dead bytes past the live ones, and past a chunk: deletes compact.
	for i := 0; i < 18_500; i++ {
		s.drop(windowedKey(i))
	}
	after := checkHeld(t, s)
	if got := mappedBytes.Load() - base; got != after || after > full/4 {
		t.Fatalf("after compaction %d bytes mapped, the store holds %d, %d before", got, after, full)
	}

	// A compaction that does not fit the arena's chunk slots is abandoned;
	// the arena it was building goes back too.
	s.drop(windowedKey(19_999))
	s.maxChunks = 1
	if s.compact() {
		t.Fatal("compaction into one chunk slot fit")
	}
	s.maxChunks = 1 << (32 - chunkShift)
	if got := mappedBytes.Load() - base; got != checkHeld(t, s) || got != after {
		t.Fatalf("after an abandoned compaction %d bytes mapped, %d before", got, after)
	}
	runtime.KeepAlive(s)
}

// TestPageOversizeUnmapsAtDeath pins that a record larger than a chunk
// gives its pages back the moment it dies, overwritten or deleted.
func TestPageOversizeUnmapsAtDeath(t *testing.T) {
	base := settleMapped(t)
	s := NewMem(MemConfig{})
	small := checkHeld(t, s)
	big := strings.Repeat("v", 1<<20)
	for i := 0; i < 4; i++ {
		if err := s.Set("section", text(big[i:])); err != nil {
			t.Fatal(err)
		}
		if got := mappedBytes.Load() - base; got != checkHeld(t, s) || got > small+(1<<20)+int64(pageSize) {
			t.Fatalf("overwrite %d: %d bytes mapped for one 1 MiB value", i, got)
		}
	}
	if !s.drop("section") {
		t.Fatal("the delete found nothing")
	}
	if got := mappedBytes.Load() - base; got != checkHeld(t, s) || got != small {
		t.Fatalf("after Delete %d bytes mapped, %d for the empty store", got, small)
	}
	runtime.KeepAlive(s)
}

// TestPageFirstChunkIsAPage pins the starter-chunk floor: where a chunk
// spans pages, the arena's first is one page, not 1/64 of a chunk, which
// would leave mapped bytes ResidentBytes does not count.
func TestPageFirstChunkIsAPage(t *testing.T) {
	s := NewMem(MemConfig{})
	if err := s.Set("k", num(1)); err != nil {
		t.Fatal(err)
	}
	if got := cap(s.chunks[0]); got != pageSize {
		t.Fatalf("first chunk holds %d bytes, want a %d-byte page", got, pageSize)
	}
}

// TestPageResizeUnmapsOldTable pins that a table doubling gives the old
// table back: after many doublings the store maps one table. A table
// starts at a page of buckets, so it doubles only once the store links
// more than 1,024 records.
func TestPageResizeUnmapsOldTable(t *testing.T) {
	base := settleMapped(t)
	s := NewMem(MemConfig{})
	for i := 0; i < 50_000; i++ {
		if i == 1_024 && s.grows != 0 {
			t.Fatalf("the table doubled %d times for %d records", s.grows, s.nrec)
		}
		if err := s.Set(windowedKey(i), num(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 50,000 records: 1,024 → 65,536 buckets.
	if s.grows != 6 {
		t.Fatalf("the table doubled %d times for %d records, want 6", s.grows, s.nrec)
	}
	if got, held := mappedBytes.Load()-base, checkHeld(t, s); got != held {
		t.Fatalf("%d bytes mapped, the store holds %d", got, held)
	}
	runtime.KeepAlive(s)
}

// TestPageDroppedStoresUnmap pins the cleanup: stores filled and dropped
// give every page back once the collector finds them unreachable. The
// golden suite builds hundreds of sessions, each with a store, so a leak
// here would grow every test binary.
func TestPageDroppedStoresUnmap(t *testing.T) {
	base := settleMapped(t)
	for i := 0; i < 200; i++ {
		cfg := MemConfig{}
		if i%2 == 1 {
			cfg.MaxBytes = 300 * 12
		}
		s := NewMem(cfg)
		for j := 0; j < 500; j++ {
			if err := s.Set(windowedKey(j), num(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if mappedBytes.Load() == base {
		t.Fatal("200 stores mapped nothing")
	}
	got := mappedBytes.Load()
	for i := 0; i < 100 && got != base; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		got = mappedBytes.Load()
	}
	if got != base {
		t.Fatalf("%d bytes still mapped after the stores were dropped", got-base)
	}
}

// TestPageScratchNeverCompactedAway pins the one chunk slice consumed after
// a compaction could run: a FastEncoder value encoded into the tail of a
// capped arena out of chunk slots, where the record's header, key and
// value fit but its LRU links do not. Were scratch to reach into the
// links' bytes, the record would need a new chunk, the arena would
// compact instead, and the value would be copied out of an unmapped chunk.
func TestPageScratchNeverCompactedAway(t *testing.T) {
	s := newMem(MemConfig{MaxBytes: 1 << 20}, 8, 1<<20)
	for i := 0; i < 8; i++ {
		if err := s.Set(fmt.Sprint("k", i), fastEntry{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		s.drop(fmt.Sprint("k", i)) // dead bytes for compaction to drop
	}
	// Pad the tail to leave exactly a header, "new" and a fastEntry: a
	// record of the right length, after opening a chunk if the tail is
	// already too short.
	want := hdrLen + len("new") + fastEntryLen
	for i := 0; ; i++ {
		c := s.chunks[s.tail]
		free := cap(c) - len(c)
		if free == want {
			break
		}
		if i == 4 {
			t.Fatalf("could not pad the tail: %d bytes free", free)
		}
		val := free - want - (hdrLen + 2 + lruLen)
		if val < 0 {
			val = 1 << 7 // does not fit: opens the next chunk
		}
		key := fmt.Sprint("p", i)
		s.mu.Lock()
		err := s.put(key, s.hash(key), make([]byte, val))
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	s.maxChunks = len(s.chunks)
	if err := s.Set("new", fastEntry{Value: 42}); err != nil {
		t.Fatal(err)
	}
	if s.dead != 0 {
		t.Fatal("the write did not compact: the test no longer reaches the case")
	}
	var got fastEntry
	if ok, err := s.Get("new", &got); !ok || err != nil || got.Value != 42 {
		t.Fatalf("Get = %v, %v, %+v", ok, err, got)
	}
}
