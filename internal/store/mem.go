// The in-memory backend: an embedded key-value store standing in for the
// Redis instance the Turbo prototype keeps its caching state in (§5).
// Every store serves one exact cache, so it holds one kind of value, a
// paid DP release, under one keyspace. Built without a cap it never
// evicts; built with MaxBytes it is the same store under the eviction
// policy in evict.go.
//
// # One lock, one arena
//
// The store is one RWMutex over one arena. It used to split its keyspace
// 16 ways by lock and intern namespaces, so that several caches could
// share it; no caller ever shared one. A paired run of the benchmark's
// four workloads (8 alternating pairs of 10 s, seeds 601–608) compared 16
// stripes with one on a 2-vCPU box:
//
//	workload     rss_peak_mb 16 → 1   pairs lower   setup_s          within_alpha_frac
//	hit_zipf     9.42 → 9.28          6/8           10.4 → 10.1 ms   0.9990 → 0.9995
//	miss_tree    12.74 → 12.70        6/8           2.90 → 2.89 ms   0.99965 → 0.99964
//	dash_batch   10.10 → 10.06        6/8           1.94 → 1.96 ms   0.99961 → 0.99944
//	stream_mix   10.60 → 10.48        6/8           1.97 → 1.85 ms   0.99997 → 0.99996
//
// An arena offset is a u32 (a 16-bit chunk index over 64 KiB chunks), so
// one store holds at most 4 GiB of records. A Set that would need more is
// ErrArenaFull; MaxCapBytes is the largest cap whose live records always
// fit.
//
// # Layout
//
// A cached release is ~16 bytes of key and value (a packed query key of
// 7–9 bytes and the released float64), so the store spends no heap object
// on it. The index is a []uint32 — the low bits of the key's hash to a
// chain of arena offsets — over an append-only byte arena of chunks (64
// KiB; a record larger than that, which only a key that long makes, gets a
// chunk of its own). One entry is one self-delimiting record (arena.go):
//
//	next u32 | keyLen u16 | flags u8
//	key bytes | value float64
//	[newer u32 | older u32 | hot u8]   only in a capped store
//
// An uncapped record is 7 bytes of header beside its key and value; a
// capped one adds 9 bytes of LRU links and segment.
//
// Neither the index nor the chunks hold pointers, and outside race builds
// both are mapped pages off the Go heap (pages.go), so the collector
// neither traces an entry nor grows its goal by one: a cached release is
// resident once, not once plus the heap's headroom. A chunk or table is
// unmapped the moment it leaves (compaction, an oversize record's death,
// a resize, an Import), and a store nothing references is unmapped by a
// cleanup.
//
// Collision rule: a hash picks a bucket and is never trusted further; no
// record stores one. Records that share a bucket are chained through next,
// and a lookup compares the key bytes of every record it visits, so a
// collision costs one more comparison and can never serve another
// statement's release.
//
// Overwrites and compaction: every value is 8 bytes, so an existing key's
// value is overwritten in place; an eviction unlinks the record and flags
// it dead. The arena is rewritten into fresh chunks and a right-sized
// table once its dead bytes exceed both its live bytes and one chunk, or
// when it runs out of chunk slots; a capped arena is rewritten coldest
// first, which rebuilds its LRU segments in order.
//
// Read under lock: because records are overwritten in place, a value may
// only be read while the lock is held. Get loads the float64 under the
// lock and allocates nothing. An uncapped Get holds the read lock; a
// capped one re-orders the LRU, so it holds the write lock.
//
// No chunk slice outlives the lock: the next writer may unmap the chunk,
// and a stale slice faults. Get and Export copy the values out, and Set
// writes a new record's value only once alloc has placed it.
//
// Limits fail closed: a key over 65,535 bytes, or a record past the
// arena's 65,536 chunk slots, is an error that stores nothing.

package store

import (
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// chunkShift sizes an arena chunk (64 KiB) and with it the split of a
	// 32-bit offset into chunk index and position.
	chunkShift = 16
	// maxKeyLen is what the record header's u16 key length can express.
	maxKeyLen = 1<<16 - 1
	// capSlack is the chunk slots MaxCapBytes leaves unfilled: the small
	// chunks an arena opens first (4, 4, 8, 16 and 32 KiB), the tail
	// chunk, and the record a store at its cap writes before it evicts.
	capSlack = 8
	// capRecordMax is the longest record MaxCapBytes allows for: a chunk
	// is filled until the next record does not fit, so it loses less than
	// one record at its end.
	capRecordMax = 1 << 10
)

// The store's limits. Each is returned (wrapped with the key, quoted: keys
// are binary) by the write that would have crossed it, and that write
// stores nothing; a key too long to print is given by its length.
var (
	ErrKeyTooLong = errors.New("store: key longer than 65535 bytes")
	ErrArenaFull  = errors.New("store: arena out of chunk slots")
)

// MemConfig parameterizes the in-memory backend. The zero value is the
// unbounded store.
type MemConfig struct {
	// MaxBytes caps resident payload (key bytes plus 8 a value, what
	// MemoryBytes reports); 0 leaves the store unbounded.
	MaxBytes int
}

// capped reports whether the config asks for a store that evicts.
func (c MemConfig) capped() bool { return c.MaxBytes > 0 }

// MaxCapBytes is the largest MaxBytes one arena always honours when every
// entry carries at least minPayload bytes of key and value and no record
// is longer than capRecordMax (1 KiB). A capped record is its payload
// plus 16 bytes of header and LRU links, so its payload is at least
// minPayload/(minPayload+16) of it; a chunk is filled to within one record
// of its end; and all but capSlack of the 65,536 chunk slots are filled.
// Under a larger cap a store of the smallest records can run out of slots
// before it evicts, and a Set is ErrArenaFull.
func MaxCapBytes(minPayload int) int {
	return maxCap(chunkShift, 1<<(32-chunkShift), minPayload, capRecordMax)
}

// maxCap is MaxCapBytes for an arena of maxChunks chunks of 1<<shift
// bytes and records of at most maxRecord bytes; tests shrink all three.
func maxCap(shift uint, maxChunks, minPayload, maxRecord int) int {
	perChunk := (1<<shift - (maxRecord - 1)) * minPayload / (hdrLen + lruLen + minPayload)
	return (maxChunks - capSlack) * perChunk
}

// Mem is the in-memory Backend, safe for concurrent use: one lock guards
// the arena, counters are atomics.
type Mem struct {
	cfg MemConfig
	mu  sync.RWMutex
	// reader is the lock a lookup holds: mu's read side, or — in a capped
	// store, where a hit re-orders the LRU and readers are writers — mu.
	reader sync.Locker
	arena
	// bytes is the resident payload (key + value bytes), hotBytes the
	// part of it in the protected segment. Both are guarded by mu.
	bytes, hotBytes int

	seed maphash.Seed
	// hashMask is all ones; the model test clears bits of it to force keys
	// into few buckets.
	hashMask uint64

	hits, misses, sets, setErrors, evictions atomic.Int64
}

// compile-time check: Mem is a Backend.
var _ Backend = (*Mem)(nil)

// NewMem returns an empty in-memory backend.
func NewMem(cfg MemConfig) *Mem { return newMem(cfg, chunkShift, 1<<(32-chunkShift)) }

// newMem builds a store whose arena uses 1<<shift-byte chunks and at most
// maxChunks of them; tests shrink both.
func newMem(cfg MemConfig, shift uint, maxChunks int) *Mem {
	ext := 0
	if cfg.capped() {
		ext = lruLen
	}
	s := &Mem{cfg: cfg, seed: maphash.MakeSeed(), hashMask: ^uint64(0)}
	s.arena = newArena(shift, maxChunks, ext, 0, s.hashRec, &pageSet{held: map[*byte][]byte{}})
	s.reader = s.mu.RLocker()
	if ext != 0 {
		s.reader = &s.mu
	}
	// The cleanup hangs off the arena: a chunk is read only through it,
	// so a live arena pointer keeps the pages mapped even in a method
	// past its last use of the rest of the Mem.
	runtime.AddCleanup(&s.arena, (*pageSet).release, s.pages)
	return s
}

// hash is the index's hash of k; hashRec is the same function for the key
// of a record.
func (s *Mem) hash(k string) uint64 { return maphash.String(s.seed, k) & s.hashMask }

func (s *Mem) hashRec(r rec) uint64 { return maphash.Bytes(s.seed, r.key()) & s.hashMask }

// remove unlinks the record at off (found under hash h with chain
// predecessor prev) and takes it out of the payload count and, in a
// capped store, its LRU segment. Caller holds mu.
func (s *Mem) remove(h uint64, off, prev uint32) {
	r := s.at(off)
	s.bytes -= r.payload()
	if s.capped() {
		if r.lru().hot() {
			s.hotBytes -= r.payload()
		}
		s.unlink(off)
	}
	s.kill(h, off, prev)
}

// put stores v under k, whose hash is h, and restores the cap. An
// existing key's value is overwritten in place, which counts as a use; a
// new key is appended. On error nothing changed. Caller holds mu.
func (s *Mem) put(k string, h uint64, v float64) error {
	if len(k) > maxKeyLen {
		return fmt.Errorf("%w (%d bytes)", ErrKeyTooLong, len(k))
	}
	if off, _ := s.find(h, k); off != noOff {
		s.at(off).setVal(v)
		s.touch(off)
		return nil
	}
	n := hdrLen + len(k) + valLen + s.ext
	off, r, ok := s.alloc(n)
	if !ok {
		// Out of slots: dead records and released oversize chunks may be
		// holding some.
		if !s.compact() {
			return fmt.Errorf("%w (%q)", ErrArenaFull, k)
		}
		if off, r, ok = s.alloc(n); !ok {
			return fmt.Errorf("%w (%q)", ErrArenaFull, k)
		}
	}
	r.init(k, v)
	s.link(h, off, n)
	s.bytes += r.payload()
	if s.capped() {
		// A new key starts in probation.
		r.lru().setHot(false)
		s.pushFront(off)
		s.evict()
	}
	s.settle()
	return nil
}

// settle ends a mutation: once dead bytes exceed both live bytes and one
// chunk, the arena is rewritten. Caller holds mu.
func (s *Mem) settle() {
	if s.dead > s.live && s.dead > 1<<s.shift {
		s.compact()
	}
}

// compact rewrites the live records into fresh chunks and a fresh table
// (the one place a table shrinks), reporting whether it did. Records are
// re-packed in arena order — in a capped store coldest first, so that
// pushing each to the front of its segment rebuilds the LRU order — which
// never needs more chunks than they occupy now; if it somehow did, the
// arena is left as it was. Caller holds mu.
func (s *Mem) compact() bool {
	if s.dead == 0 && s.released == 0 {
		return false
	}
	next := newArena(s.shift, s.maxChunks, s.ext, s.nrec, s.hashRec, s.pages)
	next.grows, next.chained = s.grows, s.chained
	walk := s.each
	if s.capped() {
		walk = s.eachColdestFirst
	}
	fits := true
	walk(func(_ uint32, r rec) {
		if !fits {
			return
		}
		n := s.span(r)
		off, dst, ok := next.alloc(n)
		if !ok {
			fits = false
			return
		}
		copy(dst, r[:n])
		next.link(s.hashRec(r), off, n)
		if s.capped() {
			next.pushFront(off)
		}
	})
	if fits {
		s.arena, next = next, s.arena
	}
	next.release()
	return fits
}

// Set stores v under k. A refused Set counts in SetErrors.
func (s *Mem) Set(k string, v float64) error {
	h := s.hash(k)
	s.mu.Lock()
	err := s.put(k, h, v)
	s.mu.Unlock()
	if err != nil {
		s.setErrors.Add(1)
		return err
	}
	s.sets.Add(1)
	return nil
}

// Get returns the value stored under k, reporting whether the key
// existed; in a capped store a hit is a use. It allocates nothing.
func (s *Mem) Get(k string) (float64, bool) {
	h := s.hash(k)
	var v float64
	s.reader.Lock()
	off, _ := s.find(h, k)
	if off != noOff {
		v = s.at(off).val()
		s.touch(off)
	}
	s.reader.Unlock()
	if off == noOff {
		s.misses.Add(1)
		return 0, false
	}
	s.hits.Add(1)
	return v, true
}

// MemoryBytes returns the total size of stored keys plus values — the
// figure the §6.5 memory evaluation reports for caching state, and the one
// MaxBytes bounds. It counts payload, not the record header, index slot
// and chunk slack each entry also occupies.
func (s *Mem) MemoryBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Export returns the value of every key, for the owning cache's snapshot
// section.
func (s *Mem) Export() map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]float64, s.nrec)
	s.each(func(_ uint32, r rec) { out[string(r.key())] = r.val() })
	return out
}

// Import replaces the store's contents with previously exported entries;
// Import(nil) clears it. The old arena is dropped whole, and the new one's
// table is sized for data up front. Entries go in in key order, so what a
// capped store keeps of an import over its cap does not depend on map
// iteration. An entry that breaches one of the store's limits is left
// out — to the caching layers, a miss.
func (s *Mem) Import(data map[string]float64) {
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.mu.Lock()
	defer s.mu.Unlock()
	next := newArena(s.shift, s.maxChunks, s.ext, len(data), s.hashRec, s.pages)
	next.grows, next.chained = s.grows, s.chained
	s.arena, next = next, s.arena
	next.release()
	s.bytes, s.hotBytes = 0, 0
	for _, k := range keys {
		// A refused entry is left out, as documented.
		_ = s.put(k, s.hash(k), data[k])
	}
}

// Stats returns the store's operation counters and memory accounting. An
// uncapped store never evicts and has no cap, so those fields are zero.
func (s *Mem) Stats() Stats {
	name := "arena"
	if s.cfg.capped() {
		name = "bounded-slru"
	}
	s.mu.RLock()
	entries, payload, resident := s.nrec, s.bytes, int(s.pages.resident.Load())
	s.mu.RUnlock()
	return Stats{
		Backend:       name,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Sets:          s.sets.Load(),
		SetErrors:     s.setErrors.Load(),
		Evictions:     s.evictions.Load(),
		Entries:       entries,
		Bytes:         payload,
		ResidentBytes: resident,
		CapBytes:      s.cfg.MaxBytes,
	}
}
