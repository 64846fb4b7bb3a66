// The eviction policy of a capped Mem: a segmented LRU. A long-lived
// server under heavy analyst traffic cannot let its caching state grow
// without limit; a store built with MaxBytes evicts under pressure.
//
// The store keeps the classic two-segment LRU, threaded through its
// records (arena.go): new entries land in a probation segment, a use — a
// Get hit or an overwrite — promotes to a protected segment (bounded to a
// fraction of the cap, demoting its own LRU tail back to probation), so
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

// protectedFrac is the fraction of the byte cap the protected segment may
// hold before it demotes its tail.
const protectedFrac = 0.8

// touch records a use of the record at off: a probation entry promotes to
// protected, a protected one refreshes to most recently used; the
// protected segment demotes its own tail when it outgrows its share of the
// cap. An uncapped store keeps no order. Caller holds mu.
func (s *Mem) touch(off uint32) {
	if !s.capped() {
		return
	}
	r := s.at(off)
	s.unlink(off)
	if r.lru().hot() {
		s.pushFront(off)
		return
	}
	r.lru().setHot(true)
	s.pushFront(off)
	s.hotBytes += r.payload()
	limit := int(float64(s.cfg.MaxBytes) * protectedFrac)
	for s.hotBytes > limit && s.hot.head != s.hot.tail {
		tail := s.hot.tail
		d := s.at(tail)
		s.unlink(tail)
		d.lru().setHot(false)
		s.pushFront(tail)
		s.hotBytes -= d.payload()
	}
}

// evict restores the cap by evicting the coldest probation entry, or the
// coldest protected one when probation is empty. An uncapped store is
// never over. Caller holds mu.
func (s *Mem) evict() {
	for s.capped() && s.nrec > 0 && s.bytes > s.cfg.MaxBytes {
		off := s.cold.tail
		if off == noOff {
			off = s.hot.tail
		}
		s.evictions.Add(1)
		h := s.hashRec(s.at(off))
		s.remove(h, off, s.prevOf(h, off))
	}
}
