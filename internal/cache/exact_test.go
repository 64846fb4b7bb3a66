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

// get is Lookup by q's key.
func (c *Exact) get(q *query.Query) (Entry, bool) { return c.Lookup(q.KeyWithWindow()) }

// restore stages payload into c and applies it.
func (c *Exact) restore(payload []byte) error {
	apply, err := c.StagePayload(payload)
	if err == nil {
		apply()
	}
	return err
}

// section encodes a cache/session-exact payload by hand: the entry count,
// then each key and its value bytes, in the order given.
func section(keys []string, vals [][]byte) []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(keys)))
	for i, k := range keys {
		e.PutString(k)
		e.PutBytes(vals[i])
	}
	return e.Payload()
}

func TestNilBackendRefused(t *testing.T) {
	if _, err := NewExact(nil); !errors.Is(err, ErrNilBackend) {
		t.Fatalf("NewExact(nil) err = %v, want ErrNilBackend", err)
	}
}

func TestPutGet(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	if _, ok := c.get(q); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(q, 0.42, 0.01); err != nil {
		t.Fatal(err)
	}
	e, ok := c.get(q)
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

// TestStoredPayloadBytes: an entry's stored payload is its key plus the
// codec's 17 bytes, a Value and an Eps behind a tag, and nothing else.
func TestStoredPayloadBytes(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(3, 9)
	if err := c.Put(q, 0.5, 0.25); err != nil {
		t.Fatal(err)
	}
	key := q.KeyWithWindow()
	if st := c.store.Stats(); st.Entries != 1 || st.Bytes != len(key)+17 {
		t.Fatalf("store holds %d entries, %d payload bytes; want 1 entry of %d+17", st.Entries, st.Bytes, len(key))
	}
	if raw := c.store.Export()[key]; len(raw) != 17 || raw[0] != entryTag {
		t.Fatalf("stored value %x, want the 17-byte entry", raw)
	}
}

func TestWindowDistinguishesEntries(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	w1 := q.WithWindow(0, 1)
	w2 := q.WithWindow(0, 2)
	_ = c.Put(w1, 0.1, 0.01)
	if _, ok := c.get(w2); ok {
		t.Fatal("different window hit the same entry")
	}
	if _, ok := c.get(w1); !ok {
		t.Fatal("same window missed")
	}
	// Every one of 32 fills is served: the store is the cache, with no
	// smaller tier in front of it to evict from.
	for i := 0; i < 32; i++ {
		_ = c.Put(q.WithWindow(i, i), float64(i), 0.01)
	}
	for i := 0; i < 32; i++ {
		if e, ok := c.get(q.WithWindow(i, i)); !ok || e.Value != float64(i) {
			t.Fatalf("window %d after 32 fills: %+v %v", i, e, ok)
		}
	}
}

// TestOverwrite: a Put replaces what the key held, even after the old
// bytes were read.
func TestOverwrite(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), nil)
	_ = c.Put(q, 0.1, 0.01)
	_ = c.Put(q, 0.2, 0.02)
	e, ok := c.get(q)
	if !ok || e.Value != 0.2 {
		t.Fatalf("overwrite failed: %+v %v", e, ok)
	}
	_ = c.Put(q, 0.75, 0.03)
	if e, ok := c.get(q); !ok || e.Value != 0.75 || e.Eps != 0.03 {
		t.Fatalf("Get after a re-Put = %+v, %v, want the new bytes", e, ok)
	}
	if c.entries() != 1 {
		t.Fatalf("Len after overwrite = %d", c.entries())
	}
}

// TestVersionStorm races one writer's Puts against readers' Lookups over
// a single key. The writer Puts strictly increasing versions of the
// key's release (Value v, Eps v/1000, so a torn or mixed entry shows); a
// reader never reads a version older than one it read before, nor one
// newer than the writer had begun to Put. The last word goes to a Put
// made once the storm is over: nothing the race left behind may shadow
// it.
func TestVersionStorm(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(0, 0)
	const versions = 2000
	var begun, gets atomic.Int64
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, ok := c.get(q)
				newest := float64(begun.Load())
				gets.Add(1)
				if ok && (e.Eps != e.Value/1000 || e.Value < last || e.Value > newest) {
					t.Errorf("read %+v after version %g, with version %g the newest begun", e, last, newest)
					return
				}
				if ok {
					last = e.Value
				}
				runtime.Gosched() // hand the writer its turn on a small box
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		seen := gets.Load()
		begun.Store(int64(v))
		if err := c.Put(q, float64(v), float64(v)/1000); err != nil {
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

	if err := c.Put(q, -1, 0.02); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a first read and a repeat, both from the store
		if e, ok := c.get(q); !ok || e.Value != -1 || e.Eps != 0.02 {
			t.Fatalf("read %d after quiescence = %+v, %v, want the last Put", i, e, ok)
		}
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
				if err := c.Put(q, float64(i%16), 0.01); err != nil {
					t.Error(err)
					return
				}
				if e, ok := c.get(q); ok && e.Value != float64(i%16) {
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

// TestSnapshotRoundTrip: a section restores every entry into the store
// as an exact hit, and re-captured it is the same bytes, keys sorted,
// which restore the same.
func TestSnapshotRoundTrip(t *testing.T) {
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	var keys []string
	for w := 0; w < 8; w++ {
		keys = append(keys, base.WithWindow(w, w).KeyWithWindow())
	}
	sort.Strings(keys)
	val := Entry{Value: 0.25, Eps: 0.5}.AppendFast(nil)
	vals := make([][]byte, len(keys))
	for i := range vals {
		vals[i] = val
	}
	payload := section(keys, vals)
	c := newCache(t)
	if err := c.restore(payload); err != nil {
		t.Fatal(err)
	}
	again := c.SnapshotPayload()
	if string(again) != string(payload) {
		t.Fatalf("re-capture differs from the restored section:\n%x\n%x", again, payload)
	}
	c2 := newCache(t)
	if err := c2.restore(again); err != nil {
		t.Fatal(err)
	}
	for _, cc := range []*Exact{c, c2} {
		if cc.entries() != 8 {
			t.Fatalf("restored %d entries, want 8", cc.entries())
		}
		for w := 0; w < 8; w++ {
			e, ok := cc.get(base.WithWindow(w, w))
			if !ok || e.Value != 0.25 || e.Eps != 0.5 {
				t.Fatalf("restored window %d: %+v %v, want an exact hit", w, e, ok)
			}
		}
	}
}

// refusingBackend is a store that refuses every Set of one key.
type refusingBackend struct {
	store.Backend
	refuse string
}

func (b refusingBackend) Set(k string, value store.FastEncoder) error {
	if k == b.refuse {
		return errors.New("refused")
	}
	return b.Backend.Set(k, value)
}

// TestRestoreRefusedSetIsEviction: an entry the store refuses while a
// staged section applies is evicted on arrival, as a refused fill on the
// serving path is — a miss — and the apply goes on with the rest.
func TestRestoreRefusedSetIsEviction(t *testing.T) {
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	keys := []string{base.WithWindow(0, 0).KeyWithWindow(), base.WithWindow(1, 1).KeyWithWindow(), base.WithWindow(2, 2).KeyWithWindow()}
	sort.Strings(keys)
	val := Entry{Value: 0.25, Eps: 0.5}.AppendFast(nil)
	c, err := NewExact(refusingBackend{Backend: store.NewMem(store.MemConfig{}), refuse: keys[1]})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.restore(section(keys, [][]byte{val, val, val})); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, ok := c.Lookup(k); ok != (i != 1) {
			t.Fatalf("entry %d after the restore: hit %v, want a miss only for the refused one", i, ok)
		}
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
	_ = c.Put(base.WithWindow(0, 0), 0.9, 0.5)
	for w := 1; w < 32; w++ {
		_ = c.Put(base.WithWindow(w, w), float64(w), 0.5)
		if e, ok := c.get(base.WithWindow(0, 0)); !ok || e.Value != 0.9 {
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
		if _, ok := c.get(base.WithWindow(w, w)); ok != (w >= 25) {
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
// also behind an intact entry, and the cache keeps serving what it held.
func TestRestoreRefusesBadSection(t *testing.T) {
	c := newCache(t)
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	for w := 0; w < 4; w++ {
		if err := c.Put(base.WithWindow(w, w), float64(w), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	good := base.WithWindow(5, 6).KeyWithWindow()
	value := Entry{Value: 1, Eps: 0.5}.AppendFast(nil)
	for name, bad := range map[string]struct {
		keys []string
		vals [][]byte
	}{
		"garbled key":                 {[]string{"\x07junk"}, [][]byte{value}},
		"garbled value":               {[]string{base.WithWindow(6, 6).KeyWithWindow()}, [][]byte{{0xE7, 1, 2}}},
		"garbled key, after an entry": {[]string{good, "\x01\x09"}, [][]byte{value, value}},
	} {
		payload := section(bad.keys, bad.vals)
		key := bad.keys[len(bad.keys)-1]
		if _, err := c.StagePayload(payload); err == nil || !strings.Contains(err.Error(), strconv.Quote(key)) {
			t.Fatalf("%s: StagePayload = %v, want a refusal quoting %q", name, err, key)
		}
		if c.entries() != 4 {
			t.Fatalf("%s: the refused restore left %d entries, want the 4 held", name, c.entries())
		}
		for w := 0; w < 4; w++ {
			if e, ok := c.get(base.WithWindow(w, w)); !ok || e.Value != float64(w) {
				t.Fatalf("%s: window %d after the refusal: %+v %v", name, w, e, ok)
			}
		}
	}
}
