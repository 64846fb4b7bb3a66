// Package kvstore is an embedded key-value store standing in for the Redis
// instance that the Turbo prototype uses to hold all caching state (§5):
// exact-cache entries, PMW histograms, SV state, and heuristic thresholds.
//
// It provides namespaced string keys with arbitrary gob-encoded values,
// optimistic versioning, lease/CAS coordination primitives, and
// per-namespace export/import — the subset of Redis semantics Turbo relies
// on. The paper notes Redis "can be replaced with a persistent, consistent
// and durable storage service"; store.File plays that role for durable
// deployments, and the internal/persist snapshot envelope for checkpoints.
//
// Store is the default, unbounded implementation of store.Backend (the
// pluggable storage contract every caching layer programs against); the
// memory-bounded segmented-LRU alternative lives in internal/store.
//
// The store is internally striped by key hash (the way a Redis Cluster
// spreads its hash slots), so concurrent shards of the query pipeline that
// read and write different namespaces do not contend on a single lock.
//
// # Layout
//
// A cached release is ~60 bytes of key and value, so the store spends no
// heap object on it. Each stripe is an index map[uint64]uint32 — the hash
// of (interned namespace id, key) to an arena offset — over an append-only
// byte arena of chunks (64 KiB; a record larger than that gets a chunk of
// its own). One entry is one self-delimiting record (arena.go):
//
//	next u32 | ns u16 | keyLen u16 | valLen+flags u32 | weight f64
//	[deadline i64 | ttl i64]   only when leased
//	key bytes | value bytes
//
// Neither the index nor the chunks hold pointers, so the collector never
// traces an entry.
//
// Collision rule: the index is keyed by a 64-bit hash, never trusted alone.
// Records that share a hash are chained through next, and a lookup
// compares the namespace id and the key bytes of every record it visits,
// so a collision costs one more comparison and can never serve another
// statement's release.
//
// Overwrites and compaction: a value of the same length (every re-Put of a
// cache.Entry) is overwritten in place; any other overwrite, and every
// delete, unlinks the record and flags it dead. A stripe is rewritten into
// fresh chunks once its dead bytes exceed both its live bytes and one
// chunk, or when it runs out of chunk slots.
//
// Decode under lock: because records are overwritten in place, a value's
// bytes may only be read while the stripe lock is held. Get runs the
// value's FastDecoder under the read lock (no copy, no allocation) and
// copies the bytes out first for the gob fallback.
//
// Limits fail closed: a key over 65,535 bytes, a value of 512 MiB or more,
// a 65,536th namespace, or a stripe past its 65,536 chunk slots is an
// error that stores nothing.
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// numStripes is the number of independent lock+arena stripes. A power of
// two comfortably above typical core counts keeps collision contention low
// while costing only a few empty indexes for small stores.
const numStripes = 16

const (
	// chunkShift sizes an arena chunk (64 KiB) and with it the split of a
	// 32-bit offset into chunk index and position.
	chunkShift = 16
	// maxKeyLen and maxNamespaces are what the record header's u16 key
	// length and namespace id can express.
	maxKeyLen     = 1<<16 - 1
	maxNamespaces = 1<<16 - 1
)

// The store's limits. Each is returned (wrapped with the key) by the write
// that would have crossed it, and that write stores nothing.
var (
	ErrKeyTooLong        = errors.New("kvstore: key longer than 65535 bytes")
	ErrValueTooLarge     = errors.New("kvstore: value of 512 MiB or more")
	ErrTooManyNamespaces = errors.New("kvstore: more than 65535 namespaces")
	ErrArenaFull         = errors.New("kvstore: stripe arena out of chunk slots")
)

// stripe is one lock-protected slice of the keyspace.
type stripe struct {
	mu sync.RWMutex
	arena
}

// Store is an in-memory namespaced KV store, safe for concurrent use.
type Store struct {
	stripes [numStripes]stripe
	seed    maphash.Seed
	// hashMask is all ones; the model test zeroes it to force every key
	// into one collision chain.
	hashMask uint64
	version  atomic.Uint64

	// nsMu guards the namespace intern table. It is taken before, never
	// inside, a stripe lock.
	nsMu  sync.RWMutex
	nsIDs map[string]uint16

	// nowNanos is the lease clock (unix nanos); tests substitute a fake.
	nowNanos func() int64

	// entries and bytes are the resident entry count and payload bytes
	// (namespace + ":" + key + value), maintained under the stripe locks
	// at insert, unlink and overwrite so Stats never walks the store.
	entries, bytes atomic.Int64

	hits, misses, sets, deletes atomic.Int64
	decodeErrors                atomic.Int64
}

// compile-time check: Store is a store.Backend.
var _ store.Backend = (*Store)(nil)

// New returns an empty store.
func New() *Store { return newStore(chunkShift, 1<<(32-chunkShift)) }

// newStore builds a store whose arenas use 1<<shift-byte chunks and at most
// maxChunks of them per stripe; tests shrink both.
func newStore(shift uint, maxChunks int) *Store {
	s := &Store{
		seed:     maphash.MakeSeed(),
		hashMask: ^uint64(0),
		nsIDs:    make(map[string]uint16),
		nowNanos: func() int64 { return time.Now().UnixNano() },
	}
	for i := range s.stripes {
		s.stripes[i].arena = newArena(shift, maxChunks, 0)
	}
	return s
}

// nsID returns the interned id of ns, if any write ever named it.
func (s *Store) nsID(ns string) (uint16, bool) {
	s.nsMu.RLock()
	id, ok := s.nsIDs[ns]
	s.nsMu.RUnlock()
	return id, ok
}

// intern returns the id of ns, assigning the next one on first use.
func (s *Store) intern(ns string) (uint16, error) {
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
	return id, nil
}

// hash mixes the namespace id into the key's hash; hashBytes is the same
// function for a key read back out of a record.
func (s *Store) hash(id uint16, k string) uint64 {
	return s.mix(id, maphash.String(s.seed, k))
}

func (s *Store) hashBytes(id uint16, k []byte) uint64 {
	return s.mix(id, maphash.Bytes(s.seed, k))
}

func (s *Store) mix(id uint16, h uint64) uint64 {
	return (h ^ (uint64(id)+1)*0x9e3779b97f4a7c15) & s.hashMask
}

// slot resolves ns:k to its namespace id, hash and stripe for a write,
// interning ns; checking the key length here is what keeps every later
// uint16(len(k)) honest.
func (s *Store) slot(ns, k string) (id uint16, h uint64, st *stripe, err error) {
	if len(k) > maxKeyLen {
		return 0, 0, nil, fmt.Errorf("%w (%s, %d bytes)", ErrKeyTooLong, ns, len(k))
	}
	if id, err = s.intern(ns); err != nil {
		return 0, 0, nil, err
	}
	h = s.hash(id, k)
	return id, h, &s.stripes[h&(numStripes-1)], nil
}

// probe is slot for operations that never create: a namespace nobody wrote
// to, or a key no record could hold, has nothing to find.
func (s *Store) probe(ns, k string) (id uint16, h uint64, st *stripe, ok bool) {
	if len(k) > maxKeyLen {
		return 0, 0, nil, false
	}
	if id, ok = s.nsID(ns); !ok {
		return 0, 0, nil, false
	}
	h = s.hash(id, k)
	return id, h, &s.stripes[h&(numStripes-1)], true
}

// expired reports whether r carries a lease whose deadline passed. Expired
// entries count as absent everywhere and are reclaimed lazily by the
// access that observes them.
func (s *Store) expired(r rec) bool {
	return r.leased() && s.nowNanos() > r.deadline()
}

// payloadBytes is what one entry adds to MemoryBytes.
func payloadBytes(ns string, keyLen, valLen int) int64 {
	return int64(len(ns) + 1 + keyLen + valLen)
}

// remove unlinks the record at off (found under hash h with chain
// predecessor prev) and takes it out of the counters. Caller holds st.mu.
func (s *Store) remove(st *stripe, ns string, h uint64, off, prev uint32) {
	r := st.at(off)
	s.entries.Add(-1)
	s.bytes.Add(-payloadBytes(ns, r.keyLen(), r.valLen()))
	st.kill(h, off, prev)
}

// put stores raw, stamped with m, under ns:k — whose current record, if
// any, find reported at (old, prev). A record of the same shape is
// overwritten in place; otherwise the old one dies and a new one is
// appended. raw may be the arena's own scratch (SetWeighted). On error
// nothing changed. Caller holds st.mu.
func (s *Store) put(st *stripe, ns, k string, id uint16, h uint64, old, prev uint32, raw []byte, m meta) error {
	valLen := len(raw)
	if valLen > maxValLen {
		return fmt.Errorf("%w (%s:%s, %d bytes)", ErrValueTooLarge, ns, k, valLen)
	}
	if old != noOff {
		if r := st.at(old); r.valLen() == valLen && r.leased() == m.leased() {
			r.setMeta(m)
			copy(r.val(), raw)
			return nil
		}
	}
	n := m.hdrLen() + len(k) + valLen
	off, r, ok := st.alloc(n)
	if !ok {
		// Out of slots: dead records and released oversize chunks may be
		// holding some. Compaction moves every record, so look again.
		if !s.compact(st) {
			return fmt.Errorf("%w (%s:%s)", ErrArenaFull, ns, k)
		}
		old, prev = st.find(h, id, k)
		if off, r, ok = st.alloc(n); !ok {
			return fmt.Errorf("%w (%s:%s)", ErrArenaFull, ns, k)
		}
	}
	if old != noOff {
		s.remove(st, ns, h, old, prev)
	}
	r.init(id, k, valLen, m)
	copy(r.val(), raw)
	st.link(h, off, n)
	s.entries.Add(1)
	s.bytes.Add(payloadBytes(ns, len(k), valLen))
	s.settle(st)
	return nil
}

// settle ends a mutation: once dead bytes exceed both live bytes and one
// chunk, the stripe is rewritten. Caller holds st.mu.
func (s *Store) settle(st *stripe) {
	if st.dead > st.live && st.dead > 1<<st.shift {
		s.compact(st)
	}
}

// compact rewrites st's live records into fresh chunks and a fresh index,
// reporting whether it did. Records are re-packed in arena order, which
// never needs more chunks than they occupy now; if it somehow did, the
// stripe is left as it was. Caller holds st.mu.
func (s *Store) compact(st *stripe) bool {
	if st.dead == 0 && st.released == 0 {
		return false
	}
	next := newArena(st.shift, st.maxChunks, len(st.index))
	fits := true
	st.each(func(_ uint32, r rec) {
		if !fits {
			return
		}
		n := r.size()
		off, dst, ok := next.alloc(n)
		if !ok {
			fits = false
			return
		}
		copy(dst, r[:n])
		next.link(s.hashBytes(r.ns(), r.key()), off, n)
	})
	if fits {
		st.arena = next
	}
	return fits
}

// Set stores value under ns:k, encoded through the value's FastEncoder
// when implemented (the hot-entry fixed-layout codec) and gob otherwise.
// A plain write over a guard or lease makes it a plain entry again.
func (s *Store) Set(ns, k string, value any) error {
	return s.SetWeighted(ns, k, value, 0)
}

// SetWeighted stores value under ns:k with an eviction weight. The
// unbounded store never evicts, but the weight is kept so exports carry it
// into memory-bounded backends. A FastEncoder value is encoded straight
// into the arena tail, under the stripe lock: no intermediate slice, no
// joined key string.
func (s *Store) SetWeighted(ns, k string, value any, weight float64) error {
	fe, fast := value.(store.FastEncoder)
	var raw []byte
	if !fast {
		var err error
		if raw, err = store.EncodeValue(ns, k, value); err != nil {
			return err
		}
	}
	id, h, st, err := s.slot(ns, k)
	if err != nil {
		return err
	}
	m := meta{weight: weight}
	st.mu.Lock()
	if fast {
		// Where a new record's value would start. If the key turns out to
		// have a same-length record already, put overwrites that instead
		// and the tail stays uncommitted; if the tail is too short,
		// AppendFast allocates and put copies it in.
		raw = fe.AppendFast(st.scratch(m.hdrLen() + len(k)))
	}
	old, prev := st.find(h, id, k)
	err = s.put(st, ns, k, id, h, old, prev, raw, m)
	st.mu.Unlock()
	if err != nil {
		return err
	}
	s.sets.Add(1)
	s.version.Add(1)
	return nil
}

// SetNX stores value under ns:k only if the key is absent, reporting
// whether it stored. The key is marked as a pinned guard (metadata the
// unbounded store only round-trips — nothing here evicts anyway).
func (s *Store) SetNX(ns, k string, value any) (bool, error) {
	return s.SetNXLease(ns, k, value, 0)
}

// SetNXLease stores value under ns:k only if the key is absent or its
// previous lease expired, leasing it for ttl (ttl <= 0 = permanent guard).
func (s *Store) SetNXLease(ns, k string, value any, ttl time.Duration) (bool, error) {
	raw, err := store.EncodeValue(ns, k, value)
	if err != nil {
		return false, err
	}
	id, h, st, err := s.slot(ns, k)
	if err != nil {
		return false, err
	}
	m := meta{pinned: true}
	if ttl > 0 {
		m.ttl = int64(ttl)
		m.deadline = s.nowNanos() + m.ttl
	}
	st.mu.Lock()
	old, prev := st.find(h, id, k)
	if old != noOff && !s.expired(st.at(old)) {
		st.mu.Unlock()
		return false, nil
	}
	err = s.put(st, ns, k, id, h, old, prev, raw, m)
	st.mu.Unlock()
	if err != nil {
		return false, err
	}
	s.sets.Add(1)
	s.version.Add(1)
	return true, nil
}

// CompareSwap replaces the value under ns:k only if it is present,
// unexpired, and stores exactly the encoding of expect. Weight and pin
// survive, and a leased key's deadline is renewed by its original ttl —
// CompareSwap(ns, k, mine, mine) is lease renewal.
func (s *Store) CompareSwap(ns, k string, expect, next any) (bool, error) {
	want, err := store.EncodeValue(ns, k, expect)
	if err != nil {
		return false, err
	}
	raw, err := store.EncodeValue(ns, k, next)
	if err != nil {
		return false, err
	}
	id, h, st, ok := s.probe(ns, k)
	if !ok {
		return false, nil
	}
	st.mu.Lock()
	old, prev := st.find(h, id, k)
	if old == noOff {
		st.mu.Unlock()
		return false, nil
	}
	r := st.at(old)
	if s.expired(r) || !bytes.Equal(r.val(), want) {
		st.mu.Unlock()
		return false, nil
	}
	m := r.meta()
	if m.leased() {
		m.deadline = s.nowNanos() + m.ttl
	}
	err = s.put(st, ns, k, id, h, old, prev, raw, m)
	st.mu.Unlock()
	if err != nil {
		return false, err
	}
	s.sets.Add(1)
	s.version.Add(1)
	return true, nil
}

// Get loads ns:k into out (a pointer), reporting whether the key existed.
// An expired lease counts as absent and is reclaimed on the way out. Bytes
// that fail to decode are a poisoned entry, not a hit: the entry is
// deleted (byte-guarded against a concurrent fresh Set), the decode-error
// counter bumps, and the caller sees a miss plus the error.
//
// A FastDecoder hit decodes from the arena under the stripe read lock and
// allocates nothing. Anything else is copied out under the lock and
// decoded after it: an in-place overwrite may rewrite the record the
// moment the lock drops.
func (s *Store) Get(ns, k string, out any) (bool, error) {
	id, h, st, ok := s.probe(ns, k)
	if !ok {
		s.misses.Add(1)
		return false, nil
	}
	// What the read lock saw: no record, a FastDecoder hit, an expired
	// lease, or bytes copied out for the gob fallback.
	const (
		absent = iota
		hit
		stale
		copied
	)
	saw := absent
	var raw []byte
	st.mu.RLock()
	if off, _ := st.find(h, id, k); off != noOff {
		r := st.at(off)
		if s.expired(r) {
			saw = stale
		} else if fd, ok := out.(store.FastDecoder); ok && fd.DecodeFast(r.val()) {
			saw = hit
		} else {
			saw, raw = copied, append([]byte(nil), r.val()...)
		}
	}
	st.mu.RUnlock()
	switch saw {
	case hit:
		s.hits.Add(1)
		return true, nil
	case stale:
		st.mu.Lock()
		if off, prev := st.find(h, id, k); off != noOff && s.expired(st.at(off)) {
			s.remove(st, ns, h, off, prev)
			s.settle(st)
		}
		st.mu.Unlock()
		fallthrough
	case absent:
		s.misses.Add(1)
		return false, nil
	}
	if err := store.DecodeValue(ns, k, raw, out); err != nil {
		st.mu.Lock()
		if off, prev := st.find(h, id, k); off != noOff && bytes.Equal(st.at(off).val(), raw) {
			s.remove(st, ns, h, off, prev)
			s.settle(st)
		}
		st.mu.Unlock()
		s.decodeErrors.Add(1)
		s.misses.Add(1)
		s.version.Add(1)
		return false, err
	}
	s.hits.Add(1)
	return true, nil
}

// Delete removes ns:k, reporting whether it existed.
func (s *Store) Delete(ns, k string) bool {
	return s.deleteIf(ns, k, func(rec) bool { return true })
}

// CompareDelete removes ns:k only if its stored bytes equal the encoding
// of expect, reporting whether a delete happened. It is the guarded
// invalidation primitive: a concurrent Set of a fresh value changes the
// bytes, so a stale-entry eviction can never erase it. An expired lease
// counts as absent — its holder no longer owns the key.
func (s *Store) CompareDelete(ns, k string, expect any) bool {
	want, err := store.EncodeValue(ns, k, expect)
	if err != nil {
		return false
	}
	return s.deleteIf(ns, k, func(r rec) bool {
		return !s.expired(r) && bytes.Equal(r.val(), want)
	})
}

// deleteIf removes ns:k when its record satisfies cond.
func (s *Store) deleteIf(ns, k string, cond func(rec) bool) bool {
	id, h, st, ok := s.probe(ns, k)
	if !ok {
		return false
	}
	st.mu.Lock()
	off, prev := st.find(h, id, k)
	ok = off != noOff && cond(st.at(off))
	if ok {
		s.remove(st, ns, h, off, prev)
		s.settle(st)
	}
	st.mu.Unlock()
	if ok {
		s.deletes.Add(1)
		s.version.Add(1)
	}
	return ok
}

// Keys returns the sorted keys of a namespace (without the prefix),
// skipping expired leases.
func (s *Store) Keys(ns string) []string {
	id, ok := s.nsID(ns)
	if !ok {
		return nil
	}
	var out []string
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.each(func(_ uint32, r rec) {
			if r.ns() == id && !s.expired(r) {
				out = append(out, string(r.key()))
			}
		})
		st.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of stored keys.
func (s *Store) Len() int { return int(s.entries.Load()) }

// Version increments on every mutation.
func (s *Store) Version() uint64 { return s.version.Load() }

// MemoryBytes returns the total size of stored values plus keys — the
// figure the §6.5 memory evaluation reports for caching state. It counts
// payload (namespace + ":" + key + value bytes), not the ~35 bytes of
// record header and index slot each entry also occupies.
func (s *Store) MemoryBytes() int { return int(s.bytes.Load()) }

// ExportNamespace returns the stored bytes and metadata of every key in
// ns (keys without the prefix), for per-namespace persistence: each exact
// cache snapshots exactly the slice of the store it owns. Leases are live
// coordination state and are skipped.
func (s *Store) ExportNamespace(ns string) map[string]store.Exported {
	out := make(map[string]store.Exported)
	id, ok := s.nsID(ns)
	if !ok {
		return out
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.each(func(_ uint32, r rec) {
			if r.ns() != id || r.leased() {
				return
			}
			m := r.meta()
			out[string(r.key())] = store.Exported{
				Val:    append([]byte(nil), r.val()...),
				Weight: m.weight,
				Pinned: m.pinned,
			}
		})
		st.mu.RUnlock()
	}
	return out
}

// ImportNamespace replaces the contents of ns with previously-exported
// entries, leaving every other namespace untouched. Weights and pins
// round-trip so a later migration into a memory-bounded backend keeps
// its eviction priority. An entry that breaches one of the store's limits
// is left out — to the caching layers, a miss.
func (s *Store) ImportNamespace(ns string, data map[string]store.Exported) {
	if id, ok := s.nsID(ns); ok {
		for i := range s.stripes {
			st := &s.stripes[i]
			st.mu.Lock()
			st.each(func(off uint32, r rec) {
				if r.ns() == id {
					h := s.hashBytes(id, r.key())
					s.remove(st, ns, h, off, st.prevOf(h, off))
				}
			})
			s.settle(st)
			st.mu.Unlock()
		}
	}
	for k, v := range data {
		id, h, st, err := s.slot(ns, k)
		if err != nil {
			continue
		}
		st.mu.Lock()
		old, prev := st.find(h, id, k)
		// A refused entry is left out, as documented.
		_ = s.put(st, ns, k, id, h, old, prev, v.Val, meta{weight: v.Weight, pinned: v.Pinned})
		st.mu.Unlock()
	}
	s.version.Add(1)
}

// Stats returns the store's operation counters and memory accounting.
// The striped map never evicts and has no caps, so those fields are zero.
func (s *Store) Stats() store.Stats {
	return store.Stats{
		Backend:      "striped-map",
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Sets:         s.sets.Load(),
		Deletes:      s.deletes.Load(),
		DecodeErrors: s.decodeErrors.Load(),
		Entries:      s.Len(),
		Bytes:        s.MemoryBytes(),
	}
}
