package cache

import (
	"errors"
	"strconv"
	"sync"
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
// segmented-LRU backend: entries evict under the cap, an evicted entry is
// a plain miss (the caller re-executes and re-pays), and high-ε entries
// outlive cheap cold ones.
func TestBoundedBackendEviction(t *testing.T) {
	be := store.NewMem(store.MemConfig{MaxEntries: 8, Stripes: 1, Sample: 8})
	c, err := NewExactBounded(be, "t", 1) // trivial fast map: expose backend misses
	if err != nil {
		t.Fatal(err)
	}
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	// One expensive release among cheap ones.
	_ = c.Put(base.WithWindow(0, 0), 1, 0.9, 10.0)
	for w := 1; w < 32; w++ {
		_ = c.Put(base.WithWindow(w, w), 1, float64(w), 0.001)
	}
	if got := be.Stats().Entries; got > 8 {
		t.Fatalf("bounded backend holds %d entries, cap 8", got)
	}
	if be.Stats().Evictions == 0 {
		t.Fatal("no evictions under a full cap")
	}
	// The expensive entry survived the cheap churn.
	if e, ok := c.Get(base.WithWindow(0, 0), 1); !ok || e.Value != 0.9 {
		t.Fatalf("high-cost entry evicted before cheap ones: %+v %v", e, ok)
	}
	// An evicted window is a miss, not an error.
	hitsBefore, _ := c.Stats()
	evicted := 0
	for w := 1; w < 32; w++ {
		if _, ok := c.Get(base.WithWindow(w, w), 1); !ok {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("expected some evicted windows to miss")
	}
	if hitsAfter, _ := c.Stats(); hitsAfter-hitsBefore != 31-evicted {
		t.Fatalf("hit accounting off: %d hits for %d resident", hitsAfter-hitsBefore, 31-evicted)
	}
}
