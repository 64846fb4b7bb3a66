// Package cache implements Turbo's exact-match caching objects: the
// Exact-Cache that fronts every caching pipeline (§3.3), and the Tree
// Exact-Cache baseline for partitioned databases (§6.3), which corresponds
// to the CacheDP-style design the paper compares against.
//
// An exact cache stores previous DP results keyed by the query's canonical
// predicate and its partition window: re-serving a stored DP result is
// free (post-processing) as long as the underlying data is unchanged, and
// a served dataset never changes a partition a query can name
// (dataset.Dataset.Serve), so an entry never goes stale.
//
// An exact cache owns the store it is built over, and programs against
// the pluggable store.Backend interface rather than a concrete store, so
// the same cache runs over the in-memory store capped or not. The store
// is the cache's one tier: every hit is a store read of the released
// float64, and nothing else is kept. A backend eviction is indistinguishable
// from a miss here — the query re-executes, and re-pays, through the
// session's single-flight path, so eviction can never corrupt the
// accountant.
package cache

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/store"
)

// ErrNilBackend reports an exact cache constructed without a backing
// store. Callers pass the store explicitly, so that a capped store the
// server configured cannot be silently replaced by an unbounded one.
var ErrNilBackend = errors.New("cache: nil store backend")

// MaxStoreBytes is the largest store cap (store.MemConfig.MaxBytes) under
// which one arena holds every live entry: a cache entry is at least a
// one-byte key (the window header) and an 8-byte value.
var MaxStoreBytes = store.MaxCapBytes(1 + 8)

// sectionName is the snapshot section of the cache. It names the
// namespace the session's cache once had in a shared store, so that every
// state file written since restores.
const sectionName = "cache/session-exact"

// Exact is an exact-match cache backed by a store.Backend (the
// prototype's Redis role): the store holds every release once, a float64
// under its key (its cost is in the accountant's books). Each Lookup is
// one store Get and nothing else reads the store, so the store's hit and
// miss counters are the cache's. It is safe for concurrent use and holds
// no lock of its own: the backend serializes its own access, so the
// pipeline probes the cache without holding any execution lock.
type Exact struct {
	store store.Backend
}

// NewExact creates an exact cache that owns backend b. A nil backend is
// ErrNilBackend.
//
// A new cache starts empty: whatever b already holds (a backend an earlier
// session used) is releases charged to books this cache's owner does not
// have, so the store is cleared here. Entries that do come with their
// books return through StagePayload, from the snapshot that carries the
// accountant too.
func NewExact(b store.Backend) (*Exact, error) {
	if b == nil {
		return nil, ErrNilBackend
	}
	b.Import(nil)
	return &Exact{store: b}, nil
}

// Get returns the cached result for q: Lookup by q's KeyWithWindow. The
// version is ignored: it is a compile shim for benchmark/trace.go, which
// passes core.Plan.Version, until ROADMAP item 21 deletes the twin.
func (c *Exact) Get(q *query.Query, _ int) (float64, bool) {
	return c.Lookup(q.KeyWithWindow())
}

// Lookup returns the result cached under key, a KeyWithWindow key: one
// store Get, which allocates nothing. key is only read during the call,
// so a caller may pass a view of a buffer it reuses.
func (c *Exact) Lookup(key string) (float64, bool) {
	return c.store.Get(key)
}

// Put stores a freshly-computed DP result under q's key, replacing
// whatever the key held.
func (c *Exact) Put(q *query.Query, value float64) error {
	return c.store.Set(q.KeyWithWindow(), value)
}

// SnapshotSection implements persist.Snapshotter: the cache persists the
// store it owns.
func (c *Exact) SnapshotSection() string { return sectionName }

// SnapshotPayload exports the cache's stored entries: the entry count,
// then each entry's packed key as a byte string and its value as a
// float64, keys sorted so the payload encodes byte-identically for
// identical contents (store exports are maps;
// TestSnapshotBytesDeterministic pins the whole envelope).
func (c *Exact) SnapshotPayload() []byte {
	data := c.store.Export()
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var e persist.Encoder
	e.PutUvarint(uint64(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutFloat(data[k])
	}
	return e.Payload()
}

// restoredEntry is one entry of a decoded snapshot section.
type restoredEntry struct {
	key   string
	value float64
}

// decodeSection turns a snapshot payload into the entries it restores,
// touching nothing. A key no probe could build (its window header does
// not decode), or a value that is not finite, which no release is and no
// response could carry, is an error naming the key.
func decodeSection(payload []byte) ([]restoredEntry, error) {
	d := persist.NewDecoder(payload)
	var out []restoredEntry
	for range d.Count(9) {
		r := restoredEntry{key: string(d.Bytes()), value: d.Float()}
		if d.Err() != nil {
			break
		}
		_, _, _, err := query.KeyWindow(r.key)
		if err == nil && (math.IsNaN(r.value) || math.IsInf(r.value, 0)) {
			err = fmt.Errorf("value %g is not a release", r.value)
		}
		if err != nil {
			return nil, fmt.Errorf("cache: key %q: %w", r.key, err)
		}
		out = append(out, r)
	}
	return out, d.Finish()
}

// StagePayload implements persist.Snapshotter: it decodes the whole
// payload, changing nothing, and returns the restore of what it decoded.
// A session stages every section before any applies, so a bad key or
// value is a refusal — naming the key — that leaves its books untouched.
// The apply replaces the cache's contents; an entry the store refuses
// (counted in its SetErrors) is evicted on arrival, as a refused fill on
// the serving path is: its charge is in the books, and a later ask
// re-executes.
func (c *Exact) StagePayload(payload []byte) (func(), error) {
	entries, err := decodeSection(payload)
	if err != nil {
		return nil, err
	}
	return func() {
		c.store.Import(nil)
		for _, r := range entries {
			_ = c.store.Set(r.key, r.value)
		}
	}, nil
}

// Stats returns hit and miss counts: the store's Get outcomes.
func (c *Exact) Stats() (hits, misses int) {
	st := c.store.Stats()
	return int(st.Hits), int(st.Misses)
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
