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
// on): binary string keys with values in their own fixed-layout codec
// (FastEncoder / FastDecoder — every cache entry), and a whole-store
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

// FastEncoder is the encode side of a stored value's codec: every value a
// Backend stores brings its own fixed-layout binary encoding, and the
// backend keeps AppendFast's bytes verbatim. A cache entry is written once
// per miss fill and decoded on every exact-cache hit (the store is the
// cache's only tier), so the codec is straight-line code with no
// reflection.
// Implementations must be deterministic (equal values, equal bytes, so a
// snapshot of equal contents is equal) and self-identifying (a tag/length
// FastDecoder can recognize), so bytes of another type are refused rather
// than misread.
//
// A backend may call either method while holding one of its locks, on
// bytes inside its own storage (Mem encodes into and decodes out of its
// arena): implementations are straight-line code that never calls
// back into the backend, and DecodeFast keeps no reference to data.
type FastEncoder interface {
	// AppendFast appends the value's encoding to dst and returns the
	// extended slice.
	AppendFast(dst []byte) []byte
}

// FastDecoder is the decode side of a stored value's codec. DecodeFast
// reports whether data was recognized as this codec's wire format (and
// decoded); a Get whose bytes it refuses is a poisoned entry.
type FastDecoder interface {
	DecodeFast(data []byte) bool
}

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
	// SetErrors counts Sets the store refused (a key, value or arena
	// limit). To the session a refused fill is an eviction of the new
	// entry: the paid answer is served, and the next ask re-executes.
	SetErrors int64
	// Evictions counts entries removed by memory pressure.
	Evictions int64
	// DecodeErrors counts Get calls that found the key but could not
	// decode its bytes. The backend deletes the poisoned entry and
	// reports a miss, so one corrupt byte costs a re-execution instead of
	// wedging the key forever; a nonzero count is a data-integrity signal
	// the /schema cache section surfaces.
	DecodeErrors int64
	// Entries and Bytes are the resident entry count and payload estimate
	// (keys + encoded values), ResidentBytes all the memory held for them.
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
// Implementations must be safe for concurrent use. Values carry their own
// codec: a value without one does not compile against Backend.
type Backend interface {
	// Get loads k into out, reporting whether the key existed. k is only
	// read during the call: a caller may pass a view of a buffer it
	// reuses (the exact cache probes with a request's key this way), so
	// a Get keeps no part of it.
	Get(k string, out FastDecoder) (bool, error)
	// Set stores value under k.
	Set(k string, value FastEncoder) error
	// MemoryBytes returns the resident size of stored keys plus values —
	// the §6.5 memory metric.
	MemoryBytes() int
	// Export returns the stored bytes of every key, for the cache's
	// snapshot section.
	Export() map[string][]byte
	// Import replaces the store's contents with previously exported
	// entries; Import(nil) clears it.
	Import(data map[string][]byte)
	// Stats returns the backend's counters and memory accounting.
	Stats() Stats
}
