// Package store defines the pluggable storage contract behind the exact
// cache — the Backend interface, playing the role of the paper's Redis
// tier (§5 — "can be replaced with a persistent, consistent and durable
// storage service") — and its one implementation: Mem, the in-memory
// arena store (mem.go), unbounded, or a memory-bounded segmented LRU when
// built with a cap (evict.go). A Backend serves one cache.Exact, which
// clears it on construction and owns everything in it; tests substitute
// it by embedding.
//
// Semantics every Backend must provide (the Redis subset Turbo relies
// on): binary string keys, each holding one float64 — a released DP
// answer, the one thing the exact cache keeps — and a whole-store
// export/import for the cache's snapshot section. There is no delete: a
// cache entry never goes stale (the datasets it is kept over only grow),
// and an entry leaves the store only by eviction or a clearing Import.
// Backends are free to evict under memory pressure, and to refuse a
// write: the caching layer treats every entry as a re-derivable DP
// release, so a missing key is a cache miss that re-executes — and
// re-pays — through the session's single-flight path. Eviction may cost
// budget on recompute; it can never corrupt the accountant, which is
// charged at execution time and never lives in a Backend entry.
package store

// Stats is a point-in-time view of a backend's operation counters and
// memory accounting — the figures the HTTP server surfaces under
// /schema's cache section.
type Stats struct {
	// Backend names the implementation: "arena" uncapped, "bounded-slru"
	// capped.
	Backend string
	// Hits and Misses count Get outcomes (key present / absent).
	Hits, Misses int64
	// Sets counts successful writes.
	Sets int64
	// SetErrors counts Sets the store refused (a key or arena limit). To the session a refused fill is an eviction of the new
	// entry: the paid answer is served, and the next ask re-executes.
	SetErrors int64
	// Evictions counts entries removed by memory pressure.
	Evictions int64
	// Entries and Bytes are the resident entry count and payload (key
	// bytes plus 8 a value), ResidentBytes all the memory held for them.
	Entries       int
	Bytes         int
	ResidentBytes int
	// CapBytes is the configured bound on Bytes (0 = unbounded).
	CapBytes int
	// MaskHits and MaskMisses are always 0: the predicate-mask memo they
	// counted is gone, and the fields stay only as the compile shim
	// benchmark/trace.go needs (it reads them into
	// dataset.mask_memo_hit_rate) until the benchmark-only PR that drops
	// that metric drops them too (ROADMAP item 14(c)).
	MaskHits, MaskMisses int64
}

// Backend is the storage interface the exact cache programs against.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Get returns the value stored under k, reporting whether the key
	// existed. k is only read during the call: a caller may pass a view
	// of a buffer it reuses (the exact cache probes with a request's key
	// this way), so a Get keeps no part of it.
	Get(k string) (float64, bool)
	// Set stores v under k.
	Set(k string, v float64) error
	// MemoryBytes returns the resident size of stored keys plus values —
	// the §6.5 memory metric.
	MemoryBytes() int
	// Export returns the value of every key, for the cache's snapshot
	// section.
	Export() map[string]float64
	// Import replaces the store's contents with previously exported
	// entries; Import(nil) clears it.
	Import(data map[string]float64)
	// Stats returns the backend's counters and memory accounting.
	Stats() Stats
}
