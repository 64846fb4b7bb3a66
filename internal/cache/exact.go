// Package cache implements Turbo's exact-match caching objects: the
// Exact-Cache that fronts every caching pipeline (§3.3), and the Tree
// Exact-Cache baseline for partitioned databases (§6.3), which corresponds
// to the CacheDP-style design the paper compares against.
//
// An exact cache stores previous DP results keyed by the query's canonical
// predicate, its partition window, and the data version of that window:
// re-serving a stored DP result is free (post-processing) as long as the
// underlying data is unchanged.
//
// An exact cache owns the store it is built over, and programs against
// the pluggable store.Backend interface rather than a concrete store, so
// the same cache runs over the in-memory store capped or not. Entries are written through the fixed 25-byte codec
// (codec.go). A backend eviction is indistinguishable from a miss here —
// the query re-executes, and re-pays, through the session's single-flight
// path, so eviction can never corrupt the accountant.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/store"
)

// Entry is one cached DP result.
type Entry struct {
	Value   float64 // the released DP result (a row fraction)
	Eps     float64 // budget that was paid to produce it
	Version int     // data version of the window at creation time
}

// DefaultFastEntries bounds the decoded fast map of an Exact cache. The
// backing store remains the source of truth and holds every fill; the fast
// map holds only entries that have been read, and trades a bounded amount
// of memory for a repeat hit that is one map probe — no backend hash,
// chain walk or decode. A small bound keeps the exact-hit path cheap
// (Fig. 11d) for the hot set without letting decoded entries grow with
// the full key population.
const DefaultFastEntries = 4096

// ErrNilBackend reports an exact cache constructed without a backing
// store. Callers pass the store explicitly, so that a capped store the
// server configured cannot be silently replaced by an unbounded one.
var ErrNilBackend = errors.New("cache: nil store backend")

// MaxStoreBytes is the largest store cap (store.MemConfig.MaxBytes) under
// which one arena holds every live entry: a cache entry is at least a
// one-byte key (the window header) and a 25-byte value.
var MaxStoreBytes = store.MaxCapBytes(1 + entryWireLen)

// sectionName is the snapshot section of the cache. It names the
// namespace the session's cache once had in a shared store, so that every
// state file written since restores.
const sectionName = "cache/session-exact"

// Exact is an exact-match cache backed by a store.Backend (the
// prototype's Redis role), with a bounded decoded-entry fast map in front
// of it — the client-side caching pattern Redis deployments use. The fast
// map is promote-on-read: Put writes the backend only, and the first Get
// that finds an entry there promotes it, so a fill nobody reads again
// costs one backend append and the map holds the hot set rather than the
// latest fills. Exact is safe for concurrent use: lookups take a read
// lock on the fast map and the backend serializes its own access, so the
// pipeline probes the cache without holding any execution lock.
type Exact struct {
	store   store.Backend
	maxFast int

	mu   sync.RWMutex
	fast map[string]Entry

	hits, misses atomic.Int64
}

// NewExact creates an exact cache that owns backend b, with a decoded
// fast map of at most maxFast entries (0 or negative falls back to
// DefaultFastEntries). A nil backend is ErrNilBackend.
//
// A new cache starts empty: whatever b already holds (a backend an earlier
// session used) is releases charged to books this cache's owner does not
// have, so the store is cleared here. Entries that do come with their
// books return through RestorePayload, from the snapshot that carries the
// accountant too.
func NewExact(b store.Backend, maxFast int) (*Exact, error) {
	if b == nil {
		return nil, ErrNilBackend
	}
	if maxFast <= 0 {
		maxFast = DefaultFastEntries
	}
	b.Import(nil)
	return &Exact{store: b, maxFast: maxFast, fast: make(map[string]Entry)}, nil
}

// Get returns the cached result for q at the given data version: Lookup
// by q's KeyWithWindow.
func (c *Exact) Get(q *query.Query, version int) (Entry, bool) {
	return c.Lookup(q.KeyWithWindow(), version)
}

// entries recycles the entries a store probe decodes into and a fill
// encodes from: an Entry passed to the store.Backend interface would
// escape, one allocation per probe or fill.
var entries = sync.Pool{New: func() any { return new(Entry) }}

// Lookup returns the result cached under key, a KeyWithWindow key, at the
// given data version: a fast-map probe, then the store. A fast-map entry
// whose version no longer matches is stale forever (window versions are
// monotone), so it is evicted from both layers on the way out. key is
// only read during the call — what the cache keeps, it copies — so a
// caller may pass a view of a buffer it reuses. Only a store hit
// allocates: the key it promotes into the fast map.
func (c *Exact) Lookup(key string, version int) (Entry, bool) {
	c.mu.RLock()
	e, ok := c.fast[key]
	c.mu.RUnlock()
	if ok {
		if e.Version == version {
			c.hits.Add(1)
			return e, true
		}
		c.invalidate(key, e)
	}
	out := entries.Get().(*Entry)
	found, err := c.store.Get(key, out)
	stored := *out
	entries.Put(out)
	if err != nil || !found {
		c.misses.Add(1)
		return Entry{}, false
	}
	if stored.Version != version {
		// Stale under a monotone version: it can never hit again.
		c.invalidate(key, stored)
		c.misses.Add(1)
		return Entry{}, false
	}
	c.cacheFast(strings.Clone(key), stored)
	c.hits.Add(1)
	return stored, true
}

// Put stores a freshly-computed DP result and eps, the budget paid to
// produce it. It writes the backend and drops whatever the fast map holds
// under the key (a promoted older entry), so the next Get reads — and
// promotes — the bytes just written. A reader that fetched the older bytes
// before this write may still promote them after the drop; they carry
// their own version, so a Get at the new version invalidates them on
// sight, exactly as it does a stale backend entry.
func (c *Exact) Put(q *query.Query, version int, value, eps float64) error {
	key := q.KeyWithWindow()
	e := entries.Get().(*Entry)
	*e = Entry{Value: value, Eps: eps, Version: version}
	err := c.store.Set(key, e)
	entries.Put(e)
	if err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.fast, key)
	c.mu.Unlock()
	return nil
}

// cacheFast promotes an entry read from the backend into the decoded map,
// evicting an arbitrary entry when the bound is reached. Random-ish
// eviction (map iteration order) is enough: the fast map is a
// probe-shortening layer, not the cache itself. Get is its only caller.
func (c *Exact) cacheFast(key string, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.fast[key]; !exists && len(c.fast) >= c.maxFast {
		for victim := range c.fast {
			delete(c.fast, victim)
			break
		}
	}
	c.fast[key] = e
}

// invalidate drops a stale entry from the fast map and the backing store.
// Both deletes are guarded against a concurrent Put of a fresh entry: the
// fast map by the version check, the store by a compare-and-delete on the
// observed stale bytes, so a freshly-paid result is never erased.
func (c *Exact) invalidate(key string, stale Entry) {
	c.mu.Lock()
	if e, ok := c.fast[key]; ok && e.Version == stale.Version {
		delete(c.fast, key)
	}
	c.mu.Unlock()
	c.store.CompareDelete(key, stale)
}

// SnapshotSection implements persist.Snapshotter: the cache persists the
// store it owns.
func (c *Exact) SnapshotSection() string { return sectionName }

// exactBlock is one block of a cache section: keys sorted, so the payload
// encodes byte-identically for identical contents (store exports are
// maps; TestSnapshotBytesDeterministic pins the whole envelope). A cache
// writes one block; a section may carry several (an older build striped
// its namespace and wrote one block per stripe), and all of them restore
// into the one store.
type exactBlock struct {
	Index int
	Keys  []string
	Vals  [][]byte
}

// encodeBlocks lays out a cache section: the block count, then per block
// its index, its entry count and each entry's packed key and 25-byte
// value, as byte strings.
func encodeBlocks(blocks []exactBlock) []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(blocks)))
	for _, b := range blocks {
		e.PutInt(b.Index)
		e.PutUvarint(uint64(len(b.Keys)))
		for j, k := range b.Keys {
			e.PutString(k)
			e.PutBytes(b.Vals[j])
		}
	}
	return e.Payload()
}

// SnapshotPayload exports the cache's stored entries as one block (raw KV
// bytes; the decoded fast map is a rebuildable acceleration layer and is
// skipped).
func (c *Exact) SnapshotPayload() ([]byte, error) {
	data := c.store.Export()
	b := exactBlock{Keys: make([]string, 0, len(data))}
	for k := range data {
		b.Keys = append(b.Keys, k)
	}
	sort.Strings(b.Keys)
	b.Vals = make([][]byte, len(b.Keys))
	for j, k := range b.Keys {
		b.Vals[j] = data[k]
	}
	return encodeBlocks([]exactBlock{b}), nil
}

// restoredEntry is one entry of a decoded snapshot section.
type restoredEntry struct {
	key string
	e   Entry
}

// decodeSection turns a snapshot payload into the entries it restores,
// touching nothing. Every key's window header and every value is decoded:
// a key no probe could build, or a value that is not an entry, is an
// error naming the key.
func decodeSection(payload []byte) ([]restoredEntry, error) {
	d := persist.NewDecoder(payload)
	var out []restoredEntry
	for range d.Count(2) {
		d.Int() // the block index: every block restores into the one store
		for range d.Count(2) {
			key, val := string(d.Bytes()), d.Bytes()
			if d.Err() != nil {
				break
			}
			r := restoredEntry{key: key}
			_, _, _, err := query.KeyWindow(key)
			if err == nil && !r.e.DecodeFast(val) {
				err = fmt.Errorf("%d value bytes are not a cache entry", len(val))
			}
			if err != nil {
				return nil, fmt.Errorf("cache: key %q: %w", key, err)
			}
			out = append(out, r)
		}
	}
	return out, d.Finish()
}

// StagePayload implements persist.Stager: it decodes the whole payload,
// changing nothing, and returns the restore of what it decoded. A session
// stages every cache section before any section restores, so a bad key or
// value is a refusal — naming the key — that leaves its books untouched.
func (c *Exact) StagePayload(payload []byte) (func() error, error) {
	entries, err := decodeSection(payload)
	if err != nil {
		return nil, err
	}
	return func() error {
		c.store.Import(nil)
		c.mu.Lock()
		c.fast = make(map[string]Entry)
		c.mu.Unlock()
		for _, r := range entries {
			if err := c.store.Set(r.key, r.e); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// RestorePayload replaces the cache's contents with a snapshot's and
// resets the fast map, so every restored entry is decoded from the store
// on first touch. The whole payload is decoded before the store clears
// (StagePayload), so a bad key or value is a refusal that leaves the cache
// as it was.
func (c *Exact) RestorePayload(payload []byte) error {
	apply, err := c.StagePayload(payload)
	if err != nil {
		return err
	}
	return apply()
}

// Stats returns hit and miss counts.
func (c *Exact) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *Exact) HitRate() float64 {
	hits, misses := c.Stats()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
