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
// Caches program against the pluggable store.Backend interface rather
// than a concrete store, so the same cache runs over the in-memory store
// capped or not. Entries are written through the fixed 25-byte codec
// (codec.go). A backend eviction is indistinguishable from a miss here —
// the query re-executes, and re-pays, through the session's single-flight
// path, so eviction can never corrupt the accountant.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
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
// of memory for a repeat hit that is one map probe on the stripe — no
// backend hash, chain walk or decode. A small bound keeps the exact-hit
// path cheap (Fig. 11d) for the hot set without letting decoded entries
// grow with the full key population.
const DefaultFastEntries = 4096

// ErrNilBackend reports an exact cache constructed without a backing
// store. Callers must pass the store explicitly: silently allocating a
// private one here used to let a mis-wired session lose shared-cache
// semantics without any symptom.
var ErrNilBackend = errors.New("cache: nil store backend")

// exactStripe is one namespace stripe: its own decoded fast map (and
// lock), probing its own sub-namespace of the backend.
type exactStripe struct {
	ns   string
	mu   sync.RWMutex
	fast map[string]Entry
}

// Exact is an exact-match cache backed by a store.Backend (the
// prototype's Redis role), with a bounded decoded-entry fast map in front
// of it — the client-side caching pattern Redis deployments use. The fast
// map is promote-on-read: Put writes the backend only, and the first Get
// that finds an entry there promotes it, so a fill nobody reads again
// costs one backend append and the map holds the hot set rather than the
// latest fills. Exact is safe for concurrent use:
// lookups take a read lock on their stripe's fast map and the backend
// serializes its own access, so pipeline shards can probe the cache
// without holding their shard lock.
//
// A sharded cache (NewExactSharded) stripes both the fast map and the
// backend namespace by the query window's executor shard, so per-shard
// executors touch disjoint namespaces — and disjoint fast-map locks —
// instead of contending on one.
type Exact struct {
	store store.Backend
	ns    string

	// shardWidth/stripeCount stripe keys by window start; shardWidth <= 0
	// keeps a single stripe (the unsharded behaviour).
	shardWidth  int
	stripeCount int
	stripes     []*exactStripe
	maxFast     int // per stripe

	hits, misses atomic.Int64
}

// NewExact creates an exact cache using namespace ns of backend b, with
// the default fast-map bound. Multiple caches (e.g. one per tree node)
// share one backend under different namespaces. A nil backend is
// ErrNilBackend.
func NewExact(b store.Backend, ns string) (*Exact, error) {
	return NewExactBounded(b, ns, DefaultFastEntries)
}

// NewExactBounded creates an exact cache whose decoded fast map holds at
// most maxFast entries (0 or negative falls back to the default). A nil
// backend is ErrNilBackend.
func NewExactBounded(b store.Backend, ns string, maxFast int) (*Exact, error) {
	return NewExactSharded(b, ns, maxFast, 0, 1)
}

// NewExactSharded creates an exact cache whose namespace is striped by
// window shard: a query whose window starts in partition p maps to stripe
// (p/shardWidth) mod stripeCount, probing sub-namespace "ns/i" with its
// own fast map. Aligning shardWidth with the executor shards keeps
// per-shard cache traffic on disjoint stripes. shardWidth <= 0 or
// stripeCount <= 1 keeps one stripe over the plain namespace ns.
//
// A new cache starts empty: whatever b already holds under its namespaces
// (a backend an earlier session used) is releases charged to books this
// cache's owner does not have, so each stripe's namespace is cleared here.
// Entries that do come with their books return through RestorePayload,
// from the snapshot that carries the accountant too.
func NewExactSharded(b store.Backend, ns string, maxFast, shardWidth, stripeCount int) (*Exact, error) {
	if b == nil {
		return nil, fmt.Errorf("%w (namespace %q)", ErrNilBackend, ns)
	}
	if maxFast <= 0 {
		maxFast = DefaultFastEntries
	}
	if shardWidth <= 0 || stripeCount <= 1 {
		shardWidth, stripeCount = 0, 1
	}
	c := &Exact{
		store:       b,
		ns:          ns,
		shardWidth:  shardWidth,
		stripeCount: stripeCount,
		maxFast:     (maxFast + stripeCount - 1) / stripeCount,
	}
	for i := 0; i < stripeCount; i++ {
		ns := c.stripeNS(i)
		b.ImportNamespace(ns, nil)
		c.stripes = append(c.stripes, &exactStripe{ns: ns, fast: make(map[string]Entry)})
	}
	return c, nil
}

// stripeNS names stripe i's backend namespace.
func (c *Exact) stripeNS(i int) string {
	if c.stripeCount <= 1 {
		return c.ns
	}
	return c.ns + "/" + strconv.Itoa(i)
}

// stripeForStart maps a window start to its namespace stripe.
func (c *Exact) stripeForStart(start int) *exactStripe {
	if c.stripeCount <= 1 {
		return c.stripes[0]
	}
	return c.stripes[(start/c.shardWidth)%c.stripeCount]
}

// stripeFor maps a query to its namespace stripe by window start.
func (c *Exact) stripeFor(q *query.Query) *exactStripe {
	if s, _, ok := q.Window(); ok {
		return c.stripeForStart(s)
	}
	return c.stripes[0]
}

// stripeForKey re-derives a stored key's stripe from the window its
// header carries (query.KeyWindow), or stripe 0 for a key without one.
// Restores route every entry through it rather than trusting recorded
// stripe indices, so snapshots stay portable across sessions with
// different shard counts. A key whose header does not decode is an error:
// filed anywhere, no probe would find it.
func (c *Exact) stripeForKey(key string) (*exactStripe, error) {
	start, _, windowed, err := query.KeyWindow(key)
	if err != nil {
		return nil, err
	}
	if !windowed {
		return c.stripes[0], nil
	}
	return c.stripeForStart(start), nil
}

// Get returns the cached result for q at the given data version. A fast-map
// entry whose version no longer matches is stale forever (window versions
// are monotone), so it is evicted from both layers on the way out.
func (c *Exact) Get(q *query.Query, version int) (Entry, bool) {
	st, key := c.stripeFor(q), q.KeyWithWindow()
	st.mu.RLock()
	e, ok := st.fast[key]
	st.mu.RUnlock()
	if ok {
		if e.Version == version {
			c.hits.Add(1)
			return e, true
		}
		c.invalidate(st, key, e)
	}
	var stored Entry
	found, err := c.store.Get(st.ns, key, &stored)
	if err != nil || !found {
		c.misses.Add(1)
		return Entry{}, false
	}
	if stored.Version != version {
		// Stale under a monotone version: it can never hit again.
		c.invalidate(st, key, stored)
		c.misses.Add(1)
		return Entry{}, false
	}
	c.cacheFast(st, key, stored)
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
	st, key := c.stripeFor(q), q.KeyWithWindow()
	if err := c.store.Set(st.ns, key, Entry{Value: value, Eps: eps, Version: version}); err != nil {
		return err
	}
	st.mu.Lock()
	delete(st.fast, key)
	st.mu.Unlock()
	return nil
}

// cacheFast promotes an entry read from the backend into the stripe's
// decoded map, evicting an arbitrary entry when the bound is reached.
// Random-ish eviction (map iteration order) is enough: the fast map is a
// probe-shortening layer, not the cache itself. Get is its only caller.
func (c *Exact) cacheFast(st *exactStripe, key string, e Entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, exists := st.fast[key]; !exists && len(st.fast) >= c.maxFast {
		for victim := range st.fast {
			delete(st.fast, victim)
			break
		}
	}
	st.fast[key] = e
}

// invalidate drops a stale entry from the fast map and the backing store.
// Both deletes are guarded against a concurrent Put of a fresh entry: the
// fast map by the version check, the store by a compare-and-delete on the
// observed stale bytes, so a freshly-paid result is never erased.
func (c *Exact) invalidate(st *exactStripe, key string, stale Entry) {
	st.mu.Lock()
	if e, ok := st.fast[key]; ok && e.Version == stale.Version {
		delete(st.fast, key)
	}
	st.mu.Unlock()
	c.store.CompareDelete(st.ns, key, stale)
}

// SnapshotSection implements persist.Snapshotter: each cache persists the
// namespace slice of the KV store it owns, tagged by that namespace.
func (c *Exact) SnapshotSection() string { return "cache/" + c.ns }

// exactStripeState is one namespace stripe's snapshot: keys sorted, so
// the payload encodes byte-identically for identical contents (store
// exports are maps; TestSnapshotBytesDeterministic pins the whole
// envelope).
type exactStripeState struct {
	Index int
	Keys  []string
	Vals  [][]byte
}

// encodeStripes lays out a cache section: the stripe count, then per
// stripe its index, its entry count and each entry's packed key and
// 25-byte value, as byte strings.
func encodeStripes(stripes []exactStripeState) []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(stripes)))
	for _, ss := range stripes {
		e.PutInt(ss.Index)
		e.PutUvarint(uint64(len(ss.Keys)))
		for j, k := range ss.Keys {
			e.PutString(k)
			e.PutBytes(ss.Vals[j])
		}
	}
	return e.Payload()
}

// SnapshotPayload exports the cache's stored entries per namespace stripe
// (raw KV bytes; the decoded fast map is a rebuildable acceleration layer
// and is skipped).
func (c *Exact) SnapshotPayload() ([]byte, error) {
	stripes := make([]exactStripeState, len(c.stripes))
	for i, s := range c.stripes {
		data := c.store.ExportNamespace(s.ns)
		ss := exactStripeState{Index: i, Keys: make([]string, 0, len(data))}
		for k := range data {
			ss.Keys = append(ss.Keys, k)
		}
		sort.Strings(ss.Keys)
		ss.Vals = make([][]byte, len(ss.Keys))
		for j, k := range ss.Keys {
			ss.Vals[j] = data[k]
		}
		stripes[i] = ss
	}
	return encodeStripes(stripes), nil
}

// restoredEntry is one entry of a decoded snapshot section: its packed
// key, the stripe that key routes to, and its value.
type restoredEntry struct {
	st  *exactStripe
	key string
	e   Entry
}

// decodeSection turns a snapshot payload into the entries it restores,
// touching nothing: every key's window decoded to route it, every value
// decoded. A key or value that does not decode is an error naming the
// key.
func (c *Exact) decodeSection(payload []byte) ([]restoredEntry, error) {
	d := persist.NewDecoder(payload)
	var out []restoredEntry
	for range d.Count(2) {
		d.Int() // the stripe index: entries re-route by their keys
		for range d.Count(2) {
			key, val := string(d.Bytes()), d.Bytes()
			if d.Err() != nil {
				break
			}
			r := restoredEntry{key: key}
			var err error
			if r.st, err = c.stripeForKey(key); err == nil && !r.e.DecodeFast(val) {
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
	entries, err := c.decodeSection(payload)
	if err != nil {
		return nil, err
	}
	return func() error {
		for _, s := range c.stripes {
			c.store.ImportNamespace(s.ns, nil) // clear the stripe
			s.mu.Lock()
			s.fast = make(map[string]Entry)
			s.mu.Unlock()
		}
		for _, r := range entries {
			if err := c.store.Set(r.st.ns, r.key, r.e); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// RestorePayload replaces the cache's namespace contents with a
// snapshot's and resets the fast maps, so every restored entry is decoded
// from the store on first touch. Every entry's stripe is re-derived from
// the window in its key (not the snapshot's recorded stripe indices), so
// snapshots restore correctly into sessions with any shard count — a
// checkpoint from a 16-core box restores on an 8-core one. The whole payload
// is decoded before the first stripe clears (StagePayload), so a bad key
// or value is a refusal that leaves the cache as it was.
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

// FastLen returns the number of decoded entries resident across all
// fast-map stripes.
func (c *Exact) FastLen() int {
	total := 0
	for _, st := range c.stripes {
		st.mu.RLock()
		total += len(st.fast)
		st.mu.RUnlock()
	}
	return total
}

// Stripes returns the number of namespace stripes (1 unless sharded).
func (c *Exact) Stripes() int { return c.stripeCount }

// Len returns the number of cached entries across the cache's namespaces.
func (c *Exact) Len() int {
	total := 0
	for _, st := range c.stripes {
		total += len(c.store.Keys(st.ns))
	}
	return total
}

// String identifies the cache.
func (c *Exact) String() string { return fmt.Sprintf("exact-cache(%s)", c.ns) }
