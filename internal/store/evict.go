// The eviction policy of a capped Mem: a hash-striped segmented LRU. A
// long-lived server under heavy analyst traffic cannot let its caching
// state grow without limit; a store built with MaxBytes or MaxEntries
// evicts under pressure.
//
// Each stripe keeps the classic two-segment LRU, threaded through its
// records (arena.go): new entries land in a probation segment, a use — a
// Get hit or an overwrite — promotes to a protected segment (bounded to a
// fraction of the stripe, demoting its own LRU tail back to probation), so
// one-touch scans wash through probation without displacing the proven-hot
// set. The victim is the coldest probation entry, or the coldest protected
// one when probation is empty. Eviction is recency only: biasing it by the
// ε each entry cost (a GreedyDual-style rule) never beat cost-blind
// eviction on the average cumulative budget (turbo-bench -exp=evict).
//
// Eviction is safe by construction: only cache entries live here, the
// accountant never does, and every evicted release re-executes — and
// re-pays exactly once — through the session's single-flight path, which
// the core property tests pin down.

package store

// protectedFrac is the fraction of a stripe's byte budget the protected
// segment may hold before it demotes its tail.
const protectedFrac = 0.8

// touch records a use of the record at off: a probation entry promotes to
// protected, a protected one refreshes to most recently used; the
// protected segment demotes its own tail when it outgrows its byte share.
// An uncapped stripe keeps no order. Caller holds st.mu.
func (s *Mem) touch(st *memStripe, off uint32) {
	if !st.capped() {
		return
	}
	r := st.at(off)
	st.unlink(off)
	if r.lru().hot() {
		st.pushFront(off)
		return
	}
	r.lru().setHot(true)
	st.pushFront(off)
	st.hotBytes += s.payload(r)
	if st.maxBytes <= 0 {
		return
	}
	limit := int(float64(st.maxBytes) * protectedFrac)
	for st.hotBytes > limit && st.hot.head != st.hot.tail {
		tail := st.hot.tail
		d := st.at(tail)
		st.unlink(tail)
		d.lru().setHot(false)
		st.pushFront(tail)
		st.hotBytes -= s.payload(d)
	}
}

// evict restores the stripe's caps by evicting the coldest probation
// entry, or the coldest protected one when probation is empty. An
// uncapped stripe is never over. Caller holds st.mu.
func (s *Mem) evict(st *memStripe) {
	for st.ents > 0 && (st.maxBytes > 0 && st.bytes > st.maxBytes || st.maxEnts > 0 && st.ents > st.maxEnts) {
		off := st.cold.tail
		if off == noOff {
			off = st.hot.tail
		}
		s.evictions.Add(1)
		h := s.rehash(st.at(off))
		s.remove(st, h, off, st.prevOf(h, off))
	}
}
