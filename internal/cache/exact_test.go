package cache

import (
	"errors"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/store"
)

func dom() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 2},
		domain.Attribute{Name: "b", Card: 3},
	)
}

// newCache builds an exact cache over a private in-memory store, failing the
// test on constructor errors.
func newCache(t *testing.T) *Exact {
	t.Helper()
	c, err := NewExact(store.NewMem(store.MemConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// entries is the number of entries in the cache's store.
func (c *Exact) entries() int { return c.store.Stats().Entries }

func TestNilBackendRefused(t *testing.T) {
	if _, err := NewExact(nil); !errors.Is(err, ErrNilBackend) {
		t.Fatalf("NewExact(nil) err = %v, want ErrNilBackend", err)
	}
}

func TestPutGet(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	if _, ok := c.Get(q, 1); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(q, 1, 0.42, 0.01); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get(q, 1)
	if !ok || e.Value != 0.42 || e.Eps != 0.01 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d, %d", hits, misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %g", c.HitRate())
	}
	if c.entries() != 1 {
		t.Fatalf("Len = %d", c.entries())
	}
}

func TestVersionInvalidation(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	_ = c.Put(q, 1, 0.42, 0.01)
	if _, ok := c.Get(q, 2); ok {
		t.Fatal("stale entry served after data change")
	}
}

func TestWindowDistinguishesEntries(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	w1 := q.WithWindow(0, 1)
	w2 := q.WithWindow(0, 2)
	_ = c.Put(w1, 1, 0.1, 0.01)
	if _, ok := c.Get(w2, 1); ok {
		t.Fatal("different window hit the same entry")
	}
	if _, ok := c.Get(w1, 1); !ok {
		t.Fatal("same window missed")
	}
	// Every one of 32 fills is served: the store is the cache, with no
	// smaller tier in front of it to evict from.
	for i := 0; i < 32; i++ {
		_ = c.Put(q.WithWindow(i, i), 1, float64(i), 0.01)
	}
	for i := 0; i < 32; i++ {
		if e, ok := c.Get(q.WithWindow(i, i), 1); !ok || e.Value != float64(i) {
			t.Fatalf("window %d after 32 fills: %+v %v", i, e, ok)
		}
	}
}

// TestOverwrite: a Put replaces what the key held, at a new version or at
// the same one, even after the old bytes were read.
func TestOverwrite(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), nil)
	_ = c.Put(q, 1, 0.1, 0.01)
	_ = c.Put(q, 2, 0.2, 0.02)
	e, ok := c.Get(q, 2)
	if !ok || e.Value != 0.2 {
		t.Fatalf("overwrite failed: %+v %v", e, ok)
	}
	_ = c.Put(q, 2, 0.75, 0.03)
	if e, ok := c.Get(q, 2); !ok || e.Value != 0.75 || e.Eps != 0.03 {
		t.Fatalf("Get after a same-version re-Put = %+v, %v, want the new bytes", e, ok)
	}
	if c.entries() != 1 {
		t.Fatalf("Len after overwrite = %d", c.entries())
	}
}

// TestVersionStorm races one writer's Puts against readers' Lookups over
// a single key. The writer Puts strictly increasing versions (value =
// version, so a torn or mismatched entry shows); readers ask for the
// version the writer last announced. No Get may return an entry of
// another version. A reader still asking for v that reads v+1 deletes it
// as stale, and one asking for v+1 that reads v deletes v — both are
// misses, never wrong answers, and each delete is guarded by the bytes
// the reader saw, so it never erases a newer Put. The last word goes to a
// Put made once the storm is over, at the storm's final version: nothing
// the race left behind may shadow it.
func TestVersionStorm(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(0, 0)
	const versions = 2000
	var cur, gets atomic.Int64
	cur.Store(1)
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				want := int(cur.Load())
				e, ok := c.Get(q, want)
				gets.Add(1)
				if ok && (e.Version != want || e.Value != float64(want)) {
					t.Errorf("Get at version %d returned %+v", want, e)
				}
				runtime.Gosched() // hand the writer its turn on a small box
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		seen := gets.Load()
		cur.Store(int64(v))
		if err := c.Put(q, v, float64(v), 0.01); err != nil {
			t.Fatal(err)
		}
		// Pace the writer by the readers, or on a small box it finishes
		// before they are scheduled: every fourth version waits for a Get
		// that overlapped or followed its Put.
		for v%4 == 0 && gets.Load() == seen {
			runtime.Gosched()
		}
	}
	close(stop)
	readers.Wait()

	if err := c.Put(q, versions, -1, 0.02); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a first read and a repeat, both from the store
		if e, ok := c.Get(q, versions); !ok || e.Value != -1 || e.Eps != 0.02 {
			t.Fatalf("read %d after quiescence = %+v, %v, want the last Put", i, e, ok)
		}
	}
}

func TestStaleEntriesInvalidatedOnMiss(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	_ = c.Put(q, 1, 0.42, 0.01)
	if _, ok := c.Get(q, 2); ok {
		t.Fatal("stale entry served")
	}
	if got := c.entries(); got != 0 {
		t.Fatalf("stale store entry retained: Len = %d", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := newCache(t)
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := base.WithWindow(i%16, i%16)
				if err := c.Put(q, 1, float64(i%16), 0.01); err != nil {
					t.Error(err)
					return
				}
				if e, ok := c.Get(q, 1); ok && e.Value != float64(i%16) {
					t.Errorf("got %g for window %d", e.Value, i%16)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestHitRateEmpty(t *testing.T) {
	c := newCache(t)
	if c.HitRate() != 0 {
		t.Fatal("empty cache hit rate nonzero")
	}
}

// twoStripeSection is a cache/session-exact payload laid out as a build
// that striped its namespace wrote it at two shards over 8 partitions
// (stripe width 4): windows starting in 0–3 in block 0, 4–7 in block 1,
// each block's keys sorted. It is encoded by hand, so it does not follow
// whatever SnapshotPayload writes today.
func twoStripeSection(keys []string, val []byte) []byte {
	var e persist.Encoder
	e.PutUvarint(2)
	for stripe, half := range [][]string{keys[:len(keys)/2], keys[len(keys)/2:]} {
		sorted := append([]string(nil), half...)
		sort.Strings(sorted)
		e.PutInt(stripe)
		e.PutUvarint(uint64(len(sorted)))
		for _, k := range sorted {
			e.PutString(k)
			e.PutBytes(val)
		}
	}
	return e.Payload()
}

// TestShardedSnapshotRoundTrip: a section with two stripe blocks, the
// layout a two-shard build wrote, restores into the one store, and
// every entry of both blocks is an exact hit. Re-captured, it is one
// block, which restores the same.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	var keys []string
	for w := 0; w < 8; w++ {
		keys = append(keys, base.WithWindow(w, w).KeyWithWindow())
	}
	val := Entry{Value: 0.25, Eps: 0.5, Version: 1}.AppendFast(nil)
	c := newCache(t)
	if err := c.RestorePayload(twoStripeSection(keys, val)); err != nil {
		t.Fatal(err)
	}
	again, err := c.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCache(t)
	if err := c2.RestorePayload(again); err != nil {
		t.Fatal(err)
	}
	for _, cc := range []*Exact{c, c2} {
		if cc.entries() != 8 {
			t.Fatalf("restored %d entries, want 8", cc.entries())
		}
		for w := 0; w < 8; w++ {
			e, ok := cc.Get(base.WithWindow(w, w), 1)
			if !ok || e.Value != 0.25 || e.Eps != 0.5 {
				t.Fatalf("restored window %d: %+v %v, want an exact hit", w, e, ok)
			}
		}
	}
	if d := persist.NewDecoder(again); d.Count(2) != 1 {
		t.Fatal("the re-capture is not one block")
	}
}

// TestBoundedBackendEviction drives an exact cache over the bounded
// segmented-LRU backend: entries evict under the cap, coldest first, an
// evicted entry is a plain miss (the caller re-executes and re-pays), and
// an entry in use outlives the one-touch fills around it.
func TestBoundedBackendEviction(t *testing.T) {
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	// Room for 8 entries: every key here is the same length.
	be := store.NewMem(store.MemConfig{MaxBytes: 8 * (len(base.WithWindow(0, 0).KeyWithWindow()) + entryWireLen)})
	c, err := NewExact(be)
	if err != nil {
		t.Fatal(err)
	}
	// The first fill is read after every later one; nobody reads the rest.
	_ = c.Put(base.WithWindow(0, 0), 1, 0.9, 0.5)
	for w := 1; w < 32; w++ {
		_ = c.Put(base.WithWindow(w, w), 1, float64(w), 0.5)
		if e, ok := c.Get(base.WithWindow(0, 0), 1); !ok || e.Value != 0.9 {
			t.Fatalf("fill %d evicted the entry in use: %+v %v", w, e, ok)
		}
	}
	if got := be.Stats().Entries; got != 8 {
		t.Fatalf("bounded backend holds %d entries, cap 8", got)
	}
	if got := be.Stats().Evictions; got != 24 {
		t.Fatalf("%d evictions, want the 24 oldest unread fills", got)
	}
	// The oldest unread fills went, each now a miss rather than an error;
	// the newest seven are still there.
	hitsBefore, _ := c.Stats()
	for w := 1; w < 32; w++ {
		if _, ok := c.Get(base.WithWindow(w, w), 1); ok != (w >= 25) {
			t.Fatalf("window %d: hit %v, want a hit only for the 7 newest fills", w, ok)
		}
	}
	if hitsAfter, _ := c.Stats(); hitsAfter-hitsBefore != 7 {
		t.Fatalf("hit accounting off: %d hits for 7 resident", hitsAfter-hitsBefore)
	}
}

// TestRestoreRefusesBadSection: a key whose window header does not decode
// — which no probe would ever build — and a value that does not decode are
// each refused before the store clears, by an error quoting the key,
// in a one-block section and in the second block of a two-stripe one.
// StagePayload refuses the same way, and the cache keeps serving what it
// held.
func TestRestoreRefusesBadSection(t *testing.T) {
	c := newCache(t)
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	for w := 0; w < 4; w++ {
		if err := c.Put(base.WithWindow(w, w), 1, float64(w), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	good := base.WithWindow(5, 6).KeyWithWindow()
	value := Entry{Value: 1, Eps: 0.5, Version: 1}.AppendFast(nil)
	intact := exactBlock{Keys: []string{base.WithWindow(0, 1).KeyWithWindow()}, Vals: [][]byte{value}}
	for name, bad := range map[string][]exactBlock{
		"garbled key":               {{Keys: []string{good, "\x07junk"}, Vals: [][]byte{value, value}}},
		"garbled value":             {{Keys: []string{good, base.WithWindow(6, 6).KeyWithWindow()}, Vals: [][]byte{value, {0xE7, 1, 2}}}},
		"garbled key, second block": {intact, {Index: 1, Keys: []string{good, "\x01\x09"}, Vals: [][]byte{value, value}}},
	} {
		payload := encodeBlocks(bad)
		key := bad[len(bad)-1].Keys[1]
		_, staged := c.StagePayload(payload)
		for how, err := range map[string]error{"StagePayload": staged, "RestorePayload": c.RestorePayload(payload)} {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(key)) {
				t.Fatalf("%s: %s = %v, want a refusal quoting %q", name, how, err, key)
			}
		}
		if c.entries() != 4 {
			t.Fatalf("%s: the refused restore left %d entries, want the 4 held", name, c.entries())
		}
		for w := 0; w < 4; w++ {
			if e, ok := c.Get(base.WithWindow(w, w), 1); !ok || e.Value != float64(w) {
				t.Fatalf("%s: window %d after the refusal: %+v %v", name, w, e, ok)
			}
		}
	}
}
