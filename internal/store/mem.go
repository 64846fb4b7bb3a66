// The in-memory backend: an embedded key-value store standing in for the
// Redis instance the Turbo prototype keeps all caching state in (§5) —
// exact-cache entries, PMW histograms, SV state, heuristic thresholds.
// Built without caps it never evicts; built with MaxBytes or MaxEntries it
// is the same store under the eviction policy in evict.go.
//
// The store is striped by key hash (the way a Redis Cluster spreads its
// hash slots), so concurrent shards of the query pipeline that read and
// write different keys do not contend on a single lock.
//
// # Layout
//
// A cached release is ~32 bytes of key and value (a packed query key of
// 7–9 bytes and a 25-byte entry), so the store spends no heap object on it.
// Each stripe is an index []uint32 — the low bits of the hash of (interned
// namespace id, key) to a chain of arena offsets — over an append-only byte
// arena of chunks (64 KiB; a record larger than that gets a chunk of its
// own). One entry is one self-delimiting record (arena.go):
//
//	next u32 | ns u16 | keyLen u16 | valLen+flags u32
//	key bytes | value bytes
//	[newer u32 | older u32 | hot u8]   only in a capped store
//
// An uncapped record is 12 bytes of header beside its key and value; a
// capped one adds 9 bytes of LRU links and segment.
//
// Neither the index nor the chunks hold pointers, and outside race builds
// both are mapped pages off the Go heap (pages.go), so the collector
// neither traces an entry nor grows its goal by one: a cached release is
// resident once, not once plus the heap's headroom. A chunk or table is
// unmapped the moment it leaves (compaction, an oversize record's death,
// a resize), and a store nothing references is unmapped by a cleanup.
//
// Collision rule: a hash picks a bucket and is never trusted further; no
// record stores one. Records that share a bucket are chained through next,
// and a lookup compares the namespace id and the key bytes of every record
// it visits, so a collision costs one more comparison and can never serve
// another statement's release. Namespaces are ids, not key prefixes:
// "a:b"/"c" and "a"/"b:c" are different entries.
//
// Overwrites and compaction: a value of the same length (every re-Put of a
// cache.Entry) is overwritten in place; any other overwrite, and every
// delete, unlinks the record and flags it dead. A stripe is rewritten into
// fresh chunks and a right-sized table once its dead bytes exceed both its
// live bytes and one chunk, or when it runs out of chunk slots; a capped
// stripe is rewritten coldest first, which rebuilds its LRU segments in order.
//
// Decode under lock: because records are overwritten in place, a value's
// bytes may only be read while the stripe lock is held. Get runs the
// value's FastDecoder under the lock (no copy, no allocation), and copies
// out only bytes it refuses, for the guarded delete of a poisoned entry.
// An uncapped Get holds the stripe's read lock; a capped one re-orders
// the LRU, so it holds the write lock.
//
// No chunk slice outlives its stripe lock: the next writer may unmap the
// chunk, and a stale slice faults. Get decodes under the lock or copies,
// Keys and ExportNamespace copy, and the scratch a FastEncoder fills is
// consumed under the same write lock without compacting (arena.scratch).
//
// Limits fail closed: a key over 65,535 bytes, a value of 512 MiB or more,
// a 65,536th namespace, or a stripe past its 65,536 chunk slots is an
// error that stores nothing.

package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// memStripes is the default number of independent lock+arena stripes. A
	// power of two comfortably above typical core counts keeps collision
	// contention low while costing a small store one page of table per
	// stripe.
	memStripes = 16
	// chunkShift sizes an arena chunk (64 KiB) and with it the split of a
	// 32-bit offset into chunk index and position.
	chunkShift = 16
	// maxKeyLen and maxNamespaces are what the record header's u16 key
	// length and namespace id can express.
	maxKeyLen     = 1<<16 - 1
	maxNamespaces = 1<<16 - 1
)

// The store's limits. Each is returned (wrapped with the namespace and the
// key, quoted: keys are binary) by the write that would have crossed it,
// and that write stores nothing; a key too long to print is given by its
// length.
var (
	ErrKeyTooLong        = errors.New("store: key longer than 65535 bytes")
	ErrValueTooLarge     = errors.New("store: value of 512 MiB or more")
	ErrTooManyNamespaces = errors.New("store: more than 65535 namespaces")
	ErrArenaFull         = errors.New("store: stripe arena out of chunk slots")
)

// MemConfig parameterizes the in-memory backend. The zero value is the
// unbounded store.
type MemConfig struct {
	// MaxBytes caps resident payload (namespace + ":" + key + value bytes,
	// what MemoryBytes reports) across the whole backend; 0 leaves bytes
	// unbounded.
	MaxBytes int
	// MaxEntries caps the total entry count; 0 leaves it unbounded.
	MaxEntries int
	// Stripes is the number of independent lock+arena stripes the keyspace
	// is hashed onto (each owning an equal share of the caps); <= 0
	// defaults to 16. Use 1 for deterministic single-list eviction order.
	Stripes int
}

// memStripe is one lock-protected slice of the keyspace.
type memStripe struct {
	mu sync.RWMutex
	// reader is the lock a lookup holds: mu's read side, or — in a capped
	// store, where a hit re-orders the LRU and readers are writers — mu.
	reader sync.Locker
	arena
	// ents and bytes are the stripe's resident entries and payload bytes,
	// maxEnts and maxBytes its share of the caps (0 = none), hotBytes the
	// payload in the protected segment. Only eviction reads them.
	ents, bytes, hotBytes int
	maxEnts, maxBytes     int
}

// Mem is the in-memory Backend, safe for concurrent use: stripes lock
// independently, counters are atomics.
type Mem struct {
	cfg     MemConfig
	stripes []memStripe
	seed    maphash.Seed
	// hashMask is all ones; the model test clears bits of it to force keys
	// into one stripe and few buckets.
	hashMask uint64

	// nsMu guards the namespace intern table. It is taken before, never
	// inside, a stripe lock; nsNames is the id -> name direction, published
	// atomically so that code holding a stripe lock can size a record's
	// payload and nsID can resolve a name without nsMu.
	nsMu    sync.RWMutex
	nsIDs   map[string]uint16
	nsNames atomic.Pointer[[]string]

	// entries and bytes are the resident entry count and payload bytes
	// (namespace + ":" + key + value), maintained under the stripe locks
	// at insert, unlink and overwrite so Stats never walks the store.
	entries, bytes atomic.Int64
	pages          *pageSet

	hits, misses, sets, deletes, evictions atomic.Int64
	decodeErrors                           atomic.Int64
}

// compile-time check: Mem is a Backend.
var _ Backend = (*Mem)(nil)

// NewMem returns an empty in-memory backend. Caps are split across
// stripes so the per-stripe shares sum exactly to the configured bound —
// the backend as a whole can never hold more than MaxBytes/MaxEntries,
// which Stats reports as the caps. A cap smaller than the stripe count
// shrinks the stripe count to match (every stripe must be allowed at
// least one entry/byte).
func NewMem(cfg MemConfig) *Mem { return newMem(cfg, chunkShift, 1<<(32-chunkShift)) }

// newMem builds a store whose arenas use 1<<shift-byte chunks and at most
// maxChunks of them per stripe; tests shrink both.
func newMem(cfg MemConfig, shift uint, maxChunks int) *Mem {
	if cfg.Stripes <= 0 {
		cfg.Stripes = memStripes
	}
	ext := 0
	for _, limit := range []int{cfg.MaxEntries, cfg.MaxBytes} {
		if limit > 0 {
			cfg.Stripes, ext = min(cfg.Stripes, limit), lruLen
		}
	}
	s := &Mem{
		cfg:      cfg,
		stripes:  make([]memStripe, cfg.Stripes),
		seed:     maphash.MakeSeed(),
		hashMask: ^uint64(0),
		nsIDs:    make(map[string]uint16),
		pages:    &pageSet{held: map[*byte][]byte{}},
	}
	s.nsNames.Store(new([]string))
	// The cleanup hangs off the stripes, not the Mem: a chunk is read only
	// under a stripe lock, so through a live stripe pointer, even by a
	// method past its last use of the Mem.
	runtime.AddCleanup(&s.stripes[0], (*pageSet).release, s.pages)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.arena = newArena(shift, maxChunks, ext, 0, s.rehash, s.pages)
		// The first total%Stripes stripes get the odd units; no cap, no share.
		st.maxEnts = (cfg.MaxEntries + cfg.Stripes - 1 - i) / cfg.Stripes
		st.maxBytes = (cfg.MaxBytes + cfg.Stripes - 1 - i) / cfg.Stripes
		st.reader = st.mu.RLocker()
		if ext != 0 {
			st.reader = &st.mu
		}
	}
	return s
}

// capped reports whether the config asks for a store that evicts.
func (c MemConfig) capped() bool { return c.MaxEntries > 0 || c.MaxBytes > 0 }

// nsID returns the interned id of ns, if any write ever named it. Every
// Get, Set and Delete of every stripe comes through here, so a small table
// (a session names one namespace per cache stripe) is scanned in its
// published form, touching no lock: nsMu's reader count is one cache line
// all stripes would share. Past nsScanMax names the locked map answers.
func (s *Mem) nsID(ns string) (uint16, bool) {
	names := *s.nsNames.Load()
	if len(names) > nsScanMax {
		s.nsMu.RLock()
		id, ok := s.nsIDs[ns]
		s.nsMu.RUnlock()
		return id, ok
	}
	for id, name := range names {
		if name == ns {
			return uint16(id), true
		}
	}
	return 0, false
}

// nsScanMax names scan in about the time of one uncontended locked lookup.
const nsScanMax = 32

// intern returns the id of ns, assigning the next one on first use.
func (s *Mem) intern(ns string) (uint16, error) {
	if id, ok := s.nsID(ns); ok {
		return id, nil
	}
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	if id, ok := s.nsIDs[ns]; ok {
		return id, nil
	}
	if len(s.nsIDs) >= maxNamespaces {
		return 0, fmt.Errorf("%w (namespace %q)", ErrTooManyNamespaces, ns)
	}
	id := uint16(len(s.nsIDs))
	s.nsIDs[ns] = id
	// Readers hold the old header, which ends before the element appended
	// here, so growing into spare capacity does not disturb them.
	names := append(*s.nsNames.Load(), ns)
	s.nsNames.Store(&names)
	return id, nil
}

// hash mixes the namespace id into the key's hash; hashBytes is the same
// function for a key read back out of a record, rehash for the record.
func (s *Mem) hash(id uint16, k string) uint64 {
	return s.mix(id, maphash.String(s.seed, k))
}

func (s *Mem) hashBytes(id uint16, k []byte) uint64 {
	return s.mix(id, maphash.Bytes(s.seed, k))
}

func (s *Mem) rehash(r rec) uint64 { return s.hashBytes(r.ns(), r.key()) }

func (s *Mem) mix(id uint16, h uint64) uint64 {
	return (h ^ (uint64(id)+1)*0x9e3779b97f4a7c15) & s.hashMask
}

// stripe maps the hash's high half onto the stripes: a multiply, where a
// modulo by their (not always power-of-two) number would be a divide.
func (s *Mem) stripe(h uint64) *memStripe {
	return &s.stripes[(h>>32)*uint64(len(s.stripes))>>32]
}

// slot resolves ns:k to its namespace id, hash and stripe for a write,
// interning ns; checking the key length here is what keeps every later
// uint16(len(k)) honest.
func (s *Mem) slot(ns, k string) (id uint16, h uint64, st *memStripe, err error) {
	if len(k) > maxKeyLen {
		return 0, 0, nil, fmt.Errorf("%w (%s, %d bytes)", ErrKeyTooLong, ns, len(k))
	}
	if id, err = s.intern(ns); err != nil {
		return 0, 0, nil, err
	}
	h = s.hash(id, k)
	return id, h, s.stripe(h), nil
}

// probe is slot for operations that never create: a namespace nobody wrote
// to, or a key no record could hold, has nothing to find.
func (s *Mem) probe(ns, k string) (id uint16, h uint64, st *memStripe, ok bool) {
	if len(k) > maxKeyLen {
		return 0, 0, nil, false
	}
	if id, ok = s.nsID(ns); !ok {
		return 0, 0, nil, false
	}
	h = s.hash(id, k)
	return id, h, s.stripe(h), true
}

// payload is what r adds to MemoryBytes and weighs against MaxBytes.
func (s *Mem) payload(r rec) int {
	return len((*s.nsNames.Load())[r.ns()]) + 1 + r.keyLen() + r.valLen()
}

// account adds the record to the counters (sign +1) or takes it out (-1).
// Caller holds st.mu.
func (s *Mem) account(st *memStripe, r rec, sign int) {
	n := sign * s.payload(r)
	st.ents += sign
	st.bytes += n
	s.entries.Add(int64(sign))
	s.bytes.Add(int64(n))
}

// remove unlinks the record at off (found under hash h with chain
// predecessor prev) and takes it out of the counters and, in a capped
// store, its LRU segment. Caller holds st.mu.
func (s *Mem) remove(st *memStripe, h uint64, off, prev uint32) {
	r := st.at(off)
	s.account(st, r, -1)
	if st.capped() {
		if r.lru().hot() {
			st.hotBytes -= s.payload(r)
		}
		st.unlink(off)
	}
	st.kill(h, off, prev)
}

// put stores raw under ns:k — whose current record, if any, find reported
// at (old, prev) — and restores the caps. A record of the same value
// length is overwritten in place; otherwise the old one dies and a new one
// is appended. Overwriting counts as a use. raw may be the arena's own
// scratch (Set). On error nothing changed. Caller holds st.mu.
func (s *Mem) put(st *memStripe, ns, k string, id uint16, h uint64, old, prev uint32, raw []byte) error {
	valLen := len(raw)
	if valLen > maxValLen {
		return fmt.Errorf("%w (%s:%q, %d bytes)", ErrValueTooLarge, ns, k, valLen)
	}
	if old != noOff {
		if r := st.at(old); r.valLen() == valLen {
			copy(r.val(), raw)
			s.touch(st, old)
			s.evict(st)
			return nil
		}
	}
	n := hdrLen + len(k) + valLen + st.ext
	off, r, ok := st.alloc(n)
	if !ok {
		// Out of slots: dead records and released oversize chunks may be
		// holding some. Compaction moves every record, so look again.
		if !s.compact(st) {
			return fmt.Errorf("%w (%s:%q)", ErrArenaFull, ns, k)
		}
		old, prev = st.find(h, id, k)
		if off, r, ok = st.alloc(n); !ok {
			return fmt.Errorf("%w (%s:%q)", ErrArenaFull, ns, k)
		}
	}
	// The new record starts in the segment the old one was in, probation
	// for a new key, and an overwrite then touches it.
	hot := false
	if old != noOff {
		hot = st.capped() && st.at(old).lru().hot()
		s.remove(st, h, old, prev)
	}
	r.init(id, k, valLen)
	copy(r.val(), raw)
	st.link(h, off, n)
	s.account(st, r, +1)
	if st.capped() {
		r.lru().setHot(hot)
		if hot {
			st.hotBytes += s.payload(r)
		}
		st.pushFront(off)
		if old != noOff {
			s.touch(st, off)
		}
		s.evict(st)
	}
	s.settle(st)
	return nil
}

// wrote counts a write that put accepted and passes its error on.
func (s *Mem) wrote(err error) error {
	if err == nil {
		s.sets.Add(1)
	}
	return err
}

// settle ends a mutation: once dead bytes exceed both live bytes and one
// chunk, the stripe is rewritten. Caller holds st.mu.
func (s *Mem) settle(st *memStripe) {
	if st.dead > st.live && st.dead > 1<<st.shift {
		s.compact(st)
	}
}

// compact rewrites st's live records into fresh chunks and a fresh table
// (the one place a table shrinks), reporting whether it did. Records are
// re-packed in arena order — in a capped stripe coldest first, so that
// pushing each to the front of its segment rebuilds the LRU order — which
// never needs more chunks than they occupy now; if it somehow did, the
// stripe is left as it was. Caller holds st.mu.
func (s *Mem) compact(st *memStripe) bool {
	if st.dead == 0 && st.released == 0 {
		return false
	}
	next := newArena(st.shift, st.maxChunks, st.ext, st.nrec, st.rehash, st.pages)
	next.grows, next.chained = st.grows, st.chained
	walk := st.each
	if st.capped() {
		walk = st.eachColdestFirst
	}
	fits := true
	walk(func(_ uint32, r rec) {
		if !fits {
			return
		}
		n := st.span(r)
		off, dst, ok := next.alloc(n)
		if !ok {
			fits = false
			return
		}
		copy(dst, r[:n])
		next.link(s.rehash(r), off, n)
		if st.capped() {
			next.pushFront(off)
		}
	})
	if fits {
		st.arena, next = next, st.arena
	}
	next.release()
	return fits
}

// Set stores value under ns:k, encoded by its own codec straight into the
// arena tail, under the stripe lock: no intermediate slice, no joined key
// string.
func (s *Mem) Set(ns, k string, value FastEncoder) error {
	id, h, st, err := s.slot(ns, k)
	if err != nil {
		return err
	}
	st.mu.Lock()
	// Where a new record's value would start. If the key turns out to
	// have a same-length record already, put overwrites that instead and
	// the tail stays uncommitted; if the tail is too short, AppendFast
	// allocates and put copies it in.
	raw := value.AppendFast(st.scratch(hdrLen + len(k)))
	old, prev := st.find(h, id, k)
	err = s.put(st, ns, k, id, h, old, prev, raw)
	st.mu.Unlock()
	return s.wrote(err)
}

// Get loads ns:k into out, reporting whether the key existed; in a capped
// store a hit is a use. It decodes from the arena under the stripe lock
// and allocates nothing. Bytes out refuses are a poisoned entry, not a
// hit: the entry is deleted (byte-guarded against a concurrent fresh Set),
// the decode-error counter bumps, and the caller sees a miss plus the
// error — one corrupt byte costs a re-execution instead of wedging the
// key.
func (s *Mem) Get(ns, k string, out FastDecoder) (bool, error) {
	id, h, st, ok := s.probe(ns, k)
	if !ok {
		s.misses.Add(1)
		return false, nil
	}
	found, decoded := false, false
	var raw []byte
	st.reader.Lock()
	if off, _ := st.find(h, id, k); off != noOff {
		r := st.at(off)
		s.touch(st, off)
		found = true
		if decoded = out.DecodeFast(r.val()); !decoded {
			// Copied out for the guarded delete: an in-place overwrite may
			// rewrite the record the moment the lock drops.
			raw = append([]byte(nil), r.val()...)
		}
	}
	st.reader.Unlock()
	switch {
	case !found:
		s.misses.Add(1)
		return false, nil
	case decoded:
		s.hits.Add(1)
		return true, nil
	}
	s.removeIf(st, id, h, k, func(r rec) bool { return bytes.Equal(r.val(), raw) })
	s.decodeErrors.Add(1)
	s.misses.Add(1)
	return false, fmt.Errorf("store: decode %s:%q: %d bytes are not this value's codec", ns, k, len(raw))
}

// Delete removes ns:k, reporting whether it existed.
func (s *Mem) Delete(ns, k string) bool {
	return s.deleteIf(ns, k, func(rec) bool { return true })
}

// CompareDelete removes ns:k only if its stored bytes equal the encoding
// of expect, reporting whether a delete happened. It is the guarded
// invalidation primitive: a concurrent Set of a fresh value changes the
// bytes, so a stale-entry eviction can never erase it.
func (s *Mem) CompareDelete(ns, k string, expect FastEncoder) bool {
	want := expect.AppendFast(nil)
	return s.deleteIf(ns, k, func(r rec) bool { return bytes.Equal(r.val(), want) })
}

// deleteIf removes ns:k when its record satisfies cond, as a caller's
// delete.
func (s *Mem) deleteIf(ns, k string, cond func(rec) bool) bool {
	id, h, st, ok := s.probe(ns, k)
	if ok = ok && s.removeIf(st, id, h, k, cond); ok {
		s.deletes.Add(1)
	}
	return ok
}

// removeIf removes the record of (id, k), if st has one and it satisfies
// cond.
func (s *Mem) removeIf(st *memStripe, id uint16, h uint64, k string, cond func(rec) bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	off, prev := st.find(h, id, k)
	if off == noOff || !cond(st.at(off)) {
		return false
	}
	s.remove(st, h, off, prev)
	s.settle(st)
	return true
}

// scan calls fn on every record of ns, under each stripe's read lock.
func (s *Mem) scan(ns string, fn func(rec)) {
	id, ok := s.nsID(ns)
	if !ok {
		return
	}
	visit := func(_ uint32, r rec) {
		if r.ns() == id {
			fn(r)
		}
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.each(visit)
		st.mu.RUnlock()
	}
}

// Keys returns the sorted keys of a namespace (without the prefix).
func (s *Mem) Keys(ns string) []string {
	var out []string
	s.scan(ns, func(r rec) { out = append(out, string(r.key())) })
	sort.Strings(out)
	return out
}

// Len returns the total number of stored keys.
func (s *Mem) Len() int { return int(s.entries.Load()) }

// MemoryBytes returns the total size of stored values plus keys — the
// figure the §6.5 memory evaluation reports for caching state, and the one
// MaxBytes bounds. It counts payload (namespace + ":" + key + value
// bytes), not the record header, index slot and chunk slack each entry
// also occupies.
func (s *Mem) MemoryBytes() int { return int(s.bytes.Load()) }

// ExportNamespace returns the stored bytes of every key in ns (keys
// without the prefix), for per-namespace persistence: each exact cache
// snapshots exactly the slice of the store it owns.
func (s *Mem) ExportNamespace(ns string) map[string][]byte {
	out := make(map[string][]byte)
	s.scan(ns, func(r rec) { out[string(r.key())] = append([]byte(nil), r.val()...) })
	return out
}

// ImportNamespace replaces the contents of ns with previously-exported
// entries, leaving every other namespace untouched. Entries go in in key
// order, so what a capped store keeps of an import over its cap does not
// depend on map iteration. An entry that breaches one of the store's
// limits is left out — to the caching layers, a miss.
func (s *Mem) ImportNamespace(ns string, data map[string][]byte) {
	id, interned := s.nsID(ns)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if interned {
			st.each(func(off uint32, r rec) {
				if r.ns() == id {
					h := s.rehash(r)
					s.remove(st, h, off, st.prevOf(h, off))
				}
			})
			s.settle(st)
		}
		// The stripe's even share of the import, so its table grows once.
		st.reserve(st.nrec + len(data)/len(s.stripes))
		st.mu.Unlock()
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		id, h, st, err := s.slot(ns, k)
		if err != nil {
			continue
		}
		st.mu.Lock()
		old, prev := st.find(h, id, k)
		// A refused entry is left out, as documented.
		_ = s.put(st, ns, k, id, h, old, prev, data[k])
		st.mu.Unlock()
	}
}

// Stats returns the store's operation counters and memory accounting. An
// uncapped store never evicts and has no caps, so those fields are zero.
func (s *Mem) Stats() Stats {
	name := "striped-map"
	if s.cfg.capped() {
		name = "bounded-slru"
	}
	return Stats{
		Backend:       name,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Sets:          s.sets.Load(),
		Deletes:       s.deletes.Load(),
		Evictions:     s.evictions.Load(),
		DecodeErrors:  s.decodeErrors.Load(),
		Entries:       s.Len(),
		Bytes:         s.MemoryBytes(),
		ResidentBytes: int(s.pages.resident.Load()),
		CapEntries:    s.cfg.MaxEntries,
		CapBytes:      s.cfg.MaxBytes,
	}
}
