// The eviction policy of a capped Mem: a hash-striped segmented LRU whose
// victim selection is privacy-cost-aware. A long-lived server under heavy
// analyst traffic cannot let its caching state grow without limit; a store
// built with MaxBytes or MaxEntries evicts under pressure.
//
// Each stripe keeps the classic two-segment LRU, threaded through its
// records (arena.go): new entries land in a probation segment, a use — a
// Get hit or an overwrite — promotes to a protected segment (bounded to a
// fraction of the stripe, demoting its own LRU tail back to probation), so
// one-touch scans wash through probation without displacing the proven-hot
// set. The victim is chosen by sampling the cold tail of probation
// (falling back to protected only when probation is empty) and evicting
// the sampled entry with the LOWEST eviction weight — the weight being the
// privacy budget paid to materialize the entry (SetWeighted). In a DP
// cache an eviction is not just a future memory miss: the release must be
// re-paid in ε on recompute, so among equally-cold entries the cheap ones
// go first and expensive Gaussian releases or warm aggregates survive
// longest (a GreedyDual-style cost bias on top of recency).
//
// Eviction is safe by construction: only cache entries live here, the
// accountant never does, and every evicted release re-executes — and
// re-pays exactly once — through the session's single-flight path, which
// the core property tests pin down.

package store

import (
	"math"
	"sync/atomic"
)

// protectedFrac is the fraction of a stripe's byte budget the protected
// segment may hold before it demotes its tail.
const protectedFrac = 0.8

// atomicFloat is an atomic float64 accumulator (bits in a uint64).
type atomicFloat struct{ bits atomic.Uint64 }

// Add accumulates delta.
func (a *atomicFloat) Add(delta float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

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

// evict restores the stripe's caps by evicting sampled cold-tail victims,
// lowest eviction weight first. An uncapped stripe is never over. Caller
// holds st.mu.
func (s *Mem) evict(st *memStripe) {
	for st.ents > 0 && (st.maxBytes > 0 && st.bytes > st.maxBytes || st.maxEnts > 0 && st.ents > st.maxEnts) {
		off := s.victim(st, st.cold)
		if off == noOff {
			off = s.victim(st, st.hot)
		}
		r := st.at(off)
		s.evictions.Add(1)
		s.evictedCost.Add(r.lru().weight())
		h := s.rehash(r)
		s.remove(st, h, off, st.prevOf(h, off))
	}
}

// victim examines up to Sample entries from the cold tail of a segment and
// returns the lowest-weight one (ties favor the colder entry), or noOff
// when the segment is empty. Caller holds st.mu.
func (s *Mem) victim(st *memStripe, seg lruList) uint32 {
	best, lowest := uint32(noOff), 0.0
	for off, examined := seg.tail, 0; off != noOff && examined < s.cfg.Sample; examined++ {
		r := st.at(off)
		if w := r.lru().weight(); best == noOff || w < lowest {
			best, lowest = off, w
		}
		off = r.lru().newer()
	}
	return best
}
