package cache

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/store"
)

func dom() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 2},
		domain.Attribute{Name: "b", Card: 3},
	)
}

// newCache builds an exact cache over a private striped map, failing the
// test on constructor errors.
func newCache(t *testing.T, ns string) *Exact {
	t.Helper()
	c, err := NewExact(store.NewMem(store.MemConfig{}), ns)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNilBackendRefused(t *testing.T) {
	if _, err := NewExact(nil, "t"); !errors.Is(err, ErrNilBackend) {
		t.Fatalf("NewExact(nil) err = %v, want ErrNilBackend", err)
	}
	if _, err := NewExactBounded(nil, "t", 4); !errors.Is(err, ErrNilBackend) {
		t.Fatalf("NewExactBounded(nil) err = %v, want ErrNilBackend", err)
	}
	if _, err := NewExactSharded(nil, "t", 4, 2, 4); !errors.Is(err, ErrNilBackend) {
		t.Fatalf("NewExactSharded(nil) err = %v, want ErrNilBackend", err)
	}
}

func TestPutGet(t *testing.T) {
	c := newCache(t, "t")
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
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestVersionInvalidation(t *testing.T) {
	c := newCache(t, "t")
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	_ = c.Put(q, 1, 0.42, 0.01)
	if _, ok := c.Get(q, 2); ok {
		t.Fatal("stale entry served after data change")
	}
}

func TestWindowDistinguishesEntries(t *testing.T) {
	c := newCache(t, "t")
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
}

func TestSharedStoreNamespaces(t *testing.T) {
	st := store.NewMem(store.MemConfig{})
	a, err := NewExact(st, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExact(st, "b")
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom(), nil)
	_ = a.Put(q, 1, 1.0, 0.1)
	if _, ok := b.Get(q, 1); ok {
		t.Fatal("namespace leak between caches")
	}
}

func TestOverwrite(t *testing.T) {
	c := newCache(t, "t")
	q := query.MustNew(dom(), nil)
	_ = c.Put(q, 1, 0.1, 0.01)
	_ = c.Put(q, 2, 0.2, 0.02)
	e, ok := c.Get(q, 2)
	if !ok || e.Value != 0.2 {
		t.Fatalf("overwrite failed: %+v %v", e, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", c.Len())
	}
}

func TestFastMapBounded(t *testing.T) {
	c, err := NewExactBounded(store.NewMem(store.MemConfig{}), "t", 4)
	if err != nil {
		t.Fatal(err)
	}
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	for i := 0; i < 32; i++ {
		_ = c.Put(base.WithWindow(i, i), 1, float64(i), 0.01)
	}
	if got := c.FastLen(); got > 4 {
		t.Fatalf("fast map grew to %d entries, bound is 4", got)
	}
	if c.Len() != 32 {
		t.Fatalf("store should keep all entries, Len = %d", c.Len())
	}
	// Entries evicted from the fast map are still served from the store.
	for i := 0; i < 32; i++ {
		e, ok := c.Get(base.WithWindow(i, i), 1)
		if !ok || e.Value != float64(i) {
			t.Fatalf("entry %d lost after fast-map eviction: %+v %v", i, e, ok)
		}
	}
}

// TestFastMapPromotesOnRead pins the fast map's one rule, through both
// key forms: a Put writes the backend only; the first Get of a fill reads
// the backend and promotes, the second is served without touching it; a
// re-Put of a promoted key drops the promoted entry, so the next Get
// returns the new bytes; and promotion respects the bound.
func TestFastMapPromotesOnRead(t *testing.T) {
	be := store.NewMem(store.MemConfig{})
	c, err := NewExactBounded(be, "t", 4)
	if err != nil {
		t.Fatal(err)
	}
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	q := base.WithWindow(0, 0)
	ops := []struct {
		name string
		put  func(value, eps float64) error
		get  func() (Entry, bool)
	}{
		{
			name: "query",
			put:  func(value, eps float64) error { return c.Put(q, 1, value, eps) },
			get:  func() (Entry, bool) { return c.Get(q, 1) },
		},
		{
			name: "key",
			put: func(value, eps float64) error {
				return c.PutKey(base.AppendWindowKey(nil, 1, 1), 1, 1, value, eps)
			},
			get: func() (Entry, bool) { return c.GetKey(base.AppendWindowKey(nil, 1, 1), 1, 1) },
		},
	}
	for _, op := range ops {
		name := op.name
		fast := c.FastLen()
		if err := op.put(0.25, 0.01); err != nil {
			t.Fatal(err)
		}
		if got := c.FastLen(); got != fast {
			t.Fatalf("%s: Put moved FastLen %d -> %d, want it unchanged", name, fast, got)
		}
		reads := be.Stats().Hits
		if e, ok := op.get(); !ok || e.Value != 0.25 {
			t.Fatalf("%s: first Get = %+v, %v", name, e, ok)
		}
		if got := be.Stats().Hits; got != reads+1 {
			t.Fatalf("%s: first Get made %d backend reads, want 1", name, got-reads)
		}
		if got := c.FastLen(); got != fast+1 {
			t.Fatalf("%s: first Get left FastLen at %d, want %d (promoted)", name, got, fast+1)
		}
		if e, ok := op.get(); !ok || e.Value != 0.25 {
			t.Fatalf("%s: second Get = %+v, %v", name, e, ok)
		}
		if got := be.Stats().Hits; got != reads+1 {
			t.Fatalf("%s: second Get read the backend (%d reads), want it served from the fast map", name, got-reads-1)
		}
		// Same version, better release: the tree's node cache re-fills a
		// key this way when the cached ε no longer qualifies.
		if err := op.put(0.75, 0.02); err != nil {
			t.Fatal(err)
		}
		if got := c.FastLen(); got != fast {
			t.Fatalf("%s: re-Put left FastLen at %d, want %d (promoted entry dropped)", name, got, fast)
		}
		if e, ok := op.get(); !ok || e.Value != 0.75 || e.Eps != 0.02 {
			t.Fatalf("%s: Get after re-Put = %+v, %v, want the new bytes", name, e, ok)
		}
	}
	for i := 2; i < 34; i++ {
		w := base.WithWindow(i, i)
		_ = c.Put(w, 1, float64(i), 0.01)
		if e, ok := c.Get(w, 1); !ok || e.Value != float64(i) {
			t.Fatalf("window %d: %+v %v", i, e, ok)
		}
	}
	if got := c.FastLen(); got != 4 {
		t.Fatalf("FastLen = %d after promoting 34 entries, want the bound, 4", got)
	}
}

// TestPromotionStorm races one writer against readers over a single key.
// The writer Puts strictly increasing versions (value = version, so a
// torn or mismatched entry shows); readers ask for the version the writer
// last announced. No Get may return an entry of another version. A reader
// that fetched version v from the backend may promote it after the writer
// already dropped it for v+1, and a reader still asking for v may
// invalidate v+1 on sight — both are misses, never wrong answers — so the
// last word goes to a Put made once the storm is over, at the storm's
// final version: whatever the race left promoted must not shadow it.
func TestPromotionStorm(t *testing.T) {
	c, err := NewExactBounded(store.NewMem(store.MemConfig{}), "t", 4)
	if err != nil {
		t.Fatal(err)
	}
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
	for i := 0; i < 2; i++ { // from the backend, then from the fast map
		if e, ok := c.Get(q, versions); !ok || e.Value != -1 || e.Eps != 0.02 {
			t.Fatalf("read %d after quiescence = %+v, %v, want the last Put", i, e, ok)
		}
	}
}

func TestStaleEntriesInvalidatedOnMiss(t *testing.T) {
	c := newCache(t, "t")
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	_ = c.Put(q, 1, 0.42, 0.01)
	if _, ok := c.Get(q, 2); ok {
		t.Fatal("stale entry served")
	}
	if got := c.FastLen(); got != 0 {
		t.Fatalf("stale fast entry retained: FastLen = %d", got)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("stale store entry retained: Len = %d", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := NewExactBounded(store.NewMem(store.MemConfig{}), "t", 64)
	if err != nil {
		t.Fatal(err)
	}
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
	c := newCache(t, "t")
	if c.HitRate() != 0 {
		t.Fatal("empty cache hit rate nonzero")
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestShardedStripesDisjoint(t *testing.T) {
	st := store.NewMem(store.MemConfig{})
	c, err := NewExactSharded(st, "se", 0, 4, 4) // windows 0-3 → stripe 0, 4-7 → stripe 1, ...
	if err != nil {
		t.Fatal(err)
	}
	if c.Stripes() != 4 {
		t.Fatalf("Stripes = %d", c.Stripes())
	}
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	for w := 0; w < 16; w++ {
		if err := c.Put(base.WithWindow(w, w), 1, float64(w), 0.01); err != nil {
			t.Fatal(err)
		}
	}
	// Every entry is served back through its stripe.
	for w := 0; w < 16; w++ {
		e, ok := c.Get(base.WithWindow(w, w), 1)
		if !ok || e.Value != float64(w) {
			t.Fatalf("window %d: %+v %v", w, e, ok)
		}
	}
	if c.Len() != 16 {
		t.Fatalf("Len = %d", c.Len())
	}
	// The backend namespaces are genuinely striped: each sub-namespace
	// holds its window-shard's share, and the plain namespace is empty.
	for i := 0; i < 4; i++ {
		if got := len(st.Keys("se/" + strconv.Itoa(i))); got != 4 {
			t.Fatalf("stripe %d holds %d keys, want 4", i, got)
		}
	}
	if got := len(st.Keys("se")); got != 0 {
		t.Fatalf("plain namespace holds %d keys, want 0", got)
	}
}

func TestShardedSnapshotRoundTrip(t *testing.T) {
	st := store.NewMem(store.MemConfig{})
	c, err := NewExactSharded(st, "se", 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	for w := 0; w < 8; w++ {
		_ = c.Put(base.WithWindow(w, w), 1, float64(w), 0.5)
	}
	payload, err := c.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewExactSharded(store.NewMem(store.MemConfig{}), "se", 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RestorePayload(payload); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		e, ok := c2.Get(base.WithWindow(w, w), 1)
		if !ok || e.Value != float64(w) || e.Eps != 0.5 {
			t.Fatalf("restored window %d: %+v %v", w, e, ok)
		}
	}
	// Stripe counts are not part of the snapshot contract: the same
	// payload restores into caches with fewer (or no) stripes, each entry
	// re-routed by the window in its key — a checkpoint from a many-core
	// server restores on a smaller one.
	narrow, err := NewExact(store.NewMem(store.MemConfig{}), "se")
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.RestorePayload(payload); err != nil {
		t.Fatalf("restore into 1-stripe cache: %v", err)
	}
	wide, err := NewExactSharded(store.NewMem(store.MemConfig{}), "se", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.RestorePayload(payload); err != nil {
		t.Fatalf("restore into 8-stripe cache: %v", err)
	}
	for _, c3 := range []*Exact{narrow, wide} {
		for w := 0; w < 8; w++ {
			e, ok := c3.Get(base.WithWindow(w, w), 1)
			if !ok || e.Value != float64(w) {
				t.Fatalf("%d-stripe restore lost window %d: %+v %v", c3.Stripes(), w, e, ok)
			}
		}
	}
}

// TestBoundedBackendEviction drives an exact cache over the bounded
// segmented-LRU backend: entries evict under the cap, coldest first, an
// evicted entry is a plain miss (the caller re-executes and re-pays), and
// an entry in use outlives the one-touch fills around it.
func TestBoundedBackendEviction(t *testing.T) {
	be := store.NewMem(store.MemConfig{MaxEntries: 8, Stripes: 1})
	c, err := NewExactBounded(be, "t", 1) // trivial fast map: expose backend misses
	if err != nil {
		t.Fatal(err)
	}
	base := query.MustNew(dom(), map[int][]int{0: {1}})
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
// — which no stripe's probe would ever find — and a value that does not
// decode are each refused before the first stripe clears, by an error
// quoting the key. StagePayload refuses the same way, and the cache keeps
// serving what it held.
func TestRestoreRefusesBadSection(t *testing.T) {
	c, err := NewExactSharded(store.NewMem(store.MemConfig{}), "se", 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	for w := 0; w < 4; w++ {
		if err := c.Put(base.WithWindow(w, w), 1, float64(w), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	good := base.WithWindow(5, 6).KeyWithWindow()
	value := Entry{Value: 1, Eps: 0.5, Version: 1}.AppendFast(nil)
	for name, bad := range map[string]exactStripeState{
		"garbled key":   {Keys: []string{good, "\x07junk"}, Vals: [][]byte{value, value}},
		"garbled value": {Keys: []string{good, base.WithWindow(6, 6).KeyWithWindow()}, Vals: [][]byte{value, {0xE7, 1, 2}}},
	} {
		payload := encodeStripes([]exactStripeState{bad})
		_, staged := c.StagePayload(payload)
		for how, err := range map[string]error{"StagePayload": staged, "RestorePayload": c.RestorePayload(payload)} {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(bad.Keys[1])) {
				t.Fatalf("%s: %s = %v, want a refusal quoting %q", name, how, err, bad.Keys[1])
			}
		}
		if c.Len() != 4 {
			t.Fatalf("%s: the refused restore left %d entries, want the 4 held", name, c.Len())
		}
		for w := 0; w < 4; w++ {
			if e, ok := c.Get(base.WithWindow(w, w), 1); !ok || e.Value != float64(w) {
				t.Fatalf("%s: window %d after the refusal: %+v %v", name, w, e, ok)
			}
		}
	}
}

// TestFilledOnlyOnceHeld: a cache reads Filled once a Put or a restore
// brought it an entry, not before, so a caller may skip probing it until
// then.
func TestFilledOnlyOnceHeld(t *testing.T) {
	c := newCache(t, "t")
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(1, 2)
	empty, err := c.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestorePayload(empty); err != nil || c.Filled() {
		t.Fatalf("fresh cache after an empty restore: Filled %v, err %v", c.Filled(), err)
	}
	if _, ok := c.Get(q, 1); ok || c.Filled() {
		t.Fatal("a miss filled the cache")
	}
	if err := c.Put(q, 1, 0.5, 0.1); err != nil || !c.Filled() {
		t.Fatalf("after a Put: Filled %v, err %v", c.Filled(), err)
	}
	payload, err := c.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	restored := newCache(t, "t")
	if err := restored.RestorePayload(payload); err != nil || !restored.Filled() {
		t.Fatalf("after restoring an entry: Filled %v, err %v", restored.Filled(), err)
	}
}
