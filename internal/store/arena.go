package store

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Record layout, little-endian. The header is 7 bytes:
//
//	[0:4]   next    arena offset of the next record in the same bucket
//	[4:6]   keyLen
//	[6]     flags   dead in the top bit
//	key bytes, value   the value is a float64's 8 bytes
//	newer u32 | older u32 | hot u8   present only in a capped store
const (
	hdrLen = 7
	valLen = 8
	lruLen = 9

	flagDead = 1 << 7

	// noOff is an empty bucket and the end of a bucket's chain or an LRU
	// list. No record starts there: it is the last byte of the last chunk,
	// and a record is at least a header long.
	noOff = math.MaxUint32
)

var le = binary.LittleEndian

// rec is a view of one record: arena bytes from its first header byte on
// (the slice runs to the end of the chunk; size delimits the record).
type rec []byte

func (r rec) next() uint32     { return le.Uint32(r[0:]) }
func (r rec) setNext(o uint32) { le.PutUint32(r[0:], o) }
func (r rec) keyLen() int      { return int(le.Uint16(r[4:])) }
func (r rec) dead() bool       { return r[6]&flagDead != 0 }

// size is the record's length without the LRU links (arena.span adds them).
func (r rec) size() int { return hdrLen + r.keyLen() + valLen }

// payload is what r adds to MemoryBytes and weighs against MaxBytes.
func (r rec) payload() int { return r.keyLen() + valLen }

func (r rec) key() []byte { return r[hdrLen : hdrLen+r.keyLen()] }

// val and setVal read and write the value, only while the store's lock is
// held: an overwrite rewrites it in place.
func (r rec) val() float64 { return math.Float64frombits(le.Uint64(r[hdrLen+r.keyLen():])) }

func (r rec) setVal(v float64) { le.PutUint64(r[hdrLen+r.keyLen():], math.Float64bits(v)) }

// init writes a fresh record's header, key and value. put checked len(k)
// against the field's width.
func (r rec) init(k string, v float64) {
	le.PutUint16(r[4:], uint16(len(k)))
	r[6] = 0
	copy(r[hdrLen:], k)
	r.setVal(v)
}

// lru is the extension a capped store's record carries after its value:
// LRU links and segment. It sits behind the value so that
// an uncapped record is the header, key and value alone, and so that a
// record's own lengths locate it.
type lru []byte

func (r rec) lru() lru { return lru(r[r.size():]) }

func (l lru) newer() uint32     { return le.Uint32(l[0:]) }
func (l lru) older() uint32     { return le.Uint32(l[4:]) }
func (l lru) setNewer(o uint32) { le.PutUint32(l[0:], o) }
func (l lru) setOlder(o uint32) { le.PutUint32(l[4:], o) }
func (l lru) hot() bool         { return l[8] != 0 }

func (l lru) setHot(hot bool) {
	l[8] = 0
	if hot {
		l[8] = 1
	}
}

// lruList is one segment of the LRU, threaded through the records: head is
// the most recently used, tail the coldest.
type lruList struct{ head, tail uint32 }

// arena is the store's storage: the hash index, the chunks its offsets
// point into and, in a capped store, the two LRU segments threaded through
// the records. An offset is chunk index << shift | position in chunk.
// Nothing here is safe without the store's lock.
type arena struct {
	// buckets is the index: a power-of-two table of chain heads, picked by
	// the low bits of a hash and never shorter than nrec, the records
	// linked. No hash is stored: rehash recomputes one for a new table.
	// Table and chunks come from pages; tests read grows and chained
	// (prevOf found a predecessor).
	buckets        []uint32
	nrec           int
	rehash         func(rec) uint64
	pages          *pageSet
	grows, chained int
	chunks         [][]byte
	// tail is the chunk appends go to, -1 before the first; an oversize
	// record's private chunk never becomes the tail.
	tail      int
	shift     uint
	maxChunks int
	// ext is lruLen in a capped store and 0 otherwise.
	ext int
	// live and dead are the record bytes in use and awaiting compaction;
	// released counts private chunks already dropped, whose slots only
	// compaction gives back.
	live, dead, released int
	// cold is the probation segment, hot the protected one.
	cold, hot lruList
}

// newArena returns an empty arena whose table has room for nrec records.
func newArena(shift uint, maxChunks, ext, nrec int, rehash func(rec) uint64, pages *pageSet) arena {
	empty := lruList{noOff, noOff}
	a := arena{
		rehash:    rehash,
		pages:     pages,
		tail:      -1,
		shift:     shift,
		maxChunks: maxChunks,
		ext:       ext,
		cold:      empty,
		hot:       empty,
	}
	a.resize(a.tableFor(nrec))
	return a
}

// tableFor is the smallest power-of-two table with a bucket per record and
// at least a 64th of a chunk's bytes (a page at 64 KiB, mapped anyway): a
// filling store skips ten doublings, each a map, an unmap and a rehash.
func (a *arena) tableFor(n int) int { return 1 << bits.Len(uint(max(n, 1<<a.shift>>6, 1)-1)) }

// bucket is the table slot h's chain hangs from.
func (a *arena) bucket(h uint64) *uint32 { return &a.buckets[h&uint64(len(a.buckets)-1)] }

// resize replaces the table with one of n buckets, relinking every record
// under its recomputed hash. Offsets stay valid; chain predecessors do not.
func (a *arena) resize(n int) {
	old := a.buckets
	a.buckets = a.pages.table(n)
	for i := range a.buckets {
		a.buckets[i] = noOff
	}
	for _, off := range old {
		for off != noOff {
			r := a.at(off)
			next, b := r.next(), a.bucket(a.rehash(r))
			r.setNext(*b)
			*b, off = off, next
		}
	}
	if old != nil {
		a.pages.freeTable(old)
	}
}

// release unmaps the table and every chunk still held.
func (a *arena) release() {
	a.pages.freeTable(a.buckets)
	for _, c := range a.chunks {
		if c != nil {
			a.pages.free(c)
		}
	}
}

// reserve grows the table, in one step, to hold n records.
func (a *arena) reserve(n int) {
	if t := a.tableFor(n); t > len(a.buckets) {
		a.grows++
		a.resize(t)
	}
}

func (a *arena) at(off uint32) rec {
	return rec(a.chunks[off>>a.shift][off&(1<<a.shift-1):])
}

// capped reports whether records carry LRU links.
func (a *arena) capped() bool { return a.ext != 0 }

// span is the arena bytes r occupies, LRU links included.
func (a *arena) span(r rec) int { return r.size() + a.ext }

// alloc reserves n bytes for one record. Records never span chunks: one
// that does not fit the tail opens a new chunk, one larger than a chunk
// gets a chunk to itself. It fails, changing nothing, when the arena is
// out of chunk slots.
func (a *arena) alloc(n int) (uint32, rec, bool) {
	if a.tail >= 0 {
		if c := a.chunks[a.tail]; cap(c)-len(c) >= n {
			a.chunks[a.tail] = c[:len(c)+n]
			return uint32(a.tail)<<a.shift | uint32(len(c)), rec(c[len(c) : len(c)+n]), true
		}
	}
	if len(a.chunks) >= a.maxChunks {
		return 0, nil, false
	}
	ci, size := len(a.chunks), n
	if chunk := 1 << a.shift; n <= chunk {
		// A small store stays small: chunks start at 1/64 of full size (at
		// a page if a chunk is one, so ResidentBytes counts what is mapped)
		// and double with the bytes already held.
		floor := chunk >> 6
		if chunk >= pageSize {
			floor = pageSize
		}
		size = max(n, min(chunk, max(floor, a.live+a.dead)))
		a.tail = ci
	}
	c := a.pages.bytes(size)[:n]
	a.chunks = append(a.chunks, c)
	return uint32(ci) << a.shift, rec(c), true
}

// find walks h's bucket for the record of k, returning its offset and its
// chain predecessor's (noOff for none). Key bytes are compared on every
// record visited: sharing a bucket only lengthens the walk.
func (a *arena) find(h uint64, k string) (off, prev uint32) {
	for off, prev = *a.bucket(h), noOff; off != noOff; {
		r := a.at(off)
		if string(r.key()) == k {
			return off, prev
		}
		prev, off = off, r.next()
	}
	return noOff, noOff
}

// prevOf returns the chain predecessor of the linked record at off.
func (a *arena) prevOf(h uint64, off uint32) uint32 {
	prev := uint32(noOff)
	for at := *a.bucket(h); at != off; at = a.at(at).next() {
		prev = at
	}
	if prev != noOff {
		a.chained++
	}
	return prev
}

// link puts the n-byte record at off at the head of h's chain, doubling a
// full table first. Callers of link and reserve hold no predecessor from
// find or prevOf: a resize invalidates every one.
func (a *arena) link(h uint64, off uint32, n int) {
	a.reserve(a.nrec + 1)
	b := a.bucket(h)
	a.at(off).setNext(*b)
	*b = off
	a.nrec++
	a.live += n
}

// kill unlinks the record at off from h's chain and flags it dead. A
// private chunk is dropped at once rather than left for compaction.
func (a *arena) kill(h uint64, off, prev uint32) {
	r := a.at(off)
	if prev != noOff {
		a.at(prev).setNext(r.next())
	} else {
		*a.bucket(h) = r.next()
	}
	a.nrec--
	n := a.span(r)
	a.live -= n
	if ci := off >> a.shift; len(a.chunks[ci]) > 1<<a.shift {
		a.pages.free(a.chunks[ci])
		a.chunks[ci] = nil
		a.released++
		return
	}
	r[6] |= flagDead
	a.dead += n
}

// each calls fn on every live record, in arena order. fn may kill the
// record it is handed: nothing of a record is read after fn returns, so a
// private chunk unmapped by the kill is not touched again.
func (a *arena) each(fn func(off uint32, r rec)) {
	for ci, c := range a.chunks {
		for pos := 0; pos < len(c); {
			r := rec(c[pos:])
			n := a.span(r)
			if !r.dead() {
				fn(uint32(ci)<<a.shift|uint32(pos), r)
			}
			pos += n
		}
	}
}

// eachColdestFirst calls fn on every record of a capped arena, each LRU
// segment from its tail to its head.
func (a *arena) eachColdestFirst(fn func(off uint32, r rec)) {
	for _, l := range [...]lruList{a.cold, a.hot} {
		for off := l.tail; off != noOff; {
			r := a.at(off)
			at := off
			off = r.lru().newer()
			fn(at, r)
		}
	}
}

// segment is the list a record with the given hot bit belongs to.
func (a *arena) segment(hot bool) *lruList {
	if hot {
		return &a.hot
	}
	return &a.cold
}

// pushFront makes the record at off the most recently used of the segment
// its hot bit names.
func (a *arena) pushFront(off uint32) {
	links := a.at(off).lru()
	l := a.segment(links.hot())
	links.setNewer(noOff)
	links.setOlder(l.head)
	if l.head != noOff {
		a.at(l.head).lru().setNewer(off)
	} else {
		l.tail = off
	}
	l.head = off
}

// unlink takes the record at off out of its segment.
func (a *arena) unlink(off uint32) {
	links := a.at(off).lru()
	l, newer, older := a.segment(links.hot()), links.newer(), links.older()
	if newer != noOff {
		a.at(newer).lru().setOlder(older)
	} else {
		l.head = older
	}
	if older != noOff {
		a.at(older).lru().setNewer(newer)
	} else {
		l.tail = newer
	}
}
