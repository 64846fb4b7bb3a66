// Cross-replica budget sharing: N replicas serving one partitioned
// dataset must never double-spend a partition's ε_G. Rather than a
// global lock over the whole accountant, ownership is split per
// partition with short owner leases in a shared store — the distributed
// analogue of block composition itself: partitions are independent, so
// their budgets can be owned, charged, and released independently.
//
// Protocol (PayRange over [start, end] on a shared Block):
//
//  1. Acquire the owner lease of every partition in the range, in
//     ascending index order (total order ⇒ no deadlock between replicas
//     charging overlapping ranges).
//  2. Max-merge the shared per-partition spend records into the local
//     vector. Spends are monotone non-decreasing, so max-merge is a CRDT
//     join: replicas can only converge upward, never lose a charge.
//  3. Validate the whole range against ε_G, then apply and write every
//     new spend through to the shared store (create pinned, update via
//     CompareSwap so a bounded shared store can never evict or race it).
//  4. Release the leases (guarded delete on the holder id). Leases are
//     released per call, not held sticky: liveness over stickiness — a
//     replica that crashes mid-range leaves leases that expire in ttl,
//     and the spends it already wrote stay merged (a partial range is an
//     over-charge, which is the conservative direction for privacy).
//
// A crashed owner therefore costs other replicas at most one lease ttl
// of waiting per partition, and the filter guarantee survives every
// crash point: the shared store's spend records only ever grow.
package accountant

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// SharedKV is the consumer-side surface budget sharing needs from the
// shared store (store.Backend satisfies it; declared here so accountant
// stays free of storage dependencies).
type SharedKV interface {
	Get(ns, k string, out any) (bool, error)
	SetNXLease(ns, k string, value any, ttl time.Duration) (bool, error)
	CompareSwap(ns, k string, expect, next any) (bool, error)
	CompareDelete(ns, k string, expect any) bool
}

// budgetNS is the shared-store namespace holding owner leases and spend
// records; the "!" prefix keeps it apart from cache namespaces.
const budgetNS = "!turbo/budget"

// ErrOwnershipTimeout reports a partition owner lease that could not be
// acquired within the wait bound — a peer replica is wedged mid-charge
// (or the shared store is refusing lease writes).
var ErrOwnershipTimeout = errors.New("accountant: partition ownership timeout")

// sharing is the cross-replica state of a shared Block.
type sharing struct {
	kv      SharedKV
	replica string
	ttl     time.Duration
}

// Share attaches the block to a shared store: every subsequent PayRange
// runs the owner-lease protocol above, so N replicas charging the same
// partitions stay jointly within ε_G. replica must be unique per
// replica; ttl bounds how long a crashed replica's ownership outlives it
// (and therefore how long peers may stall on its partitions).
func (b *Block) Share(kv SharedKV, replica string, ttl time.Duration) error {
	if kv == nil || replica == "" {
		return fmt.Errorf("accountant: sharing needs a store and a replica id")
	}
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.orders != nil {
		return fmt.Errorf("accountant: budget sharing supports pure-ε blocks only")
	}
	if b.shared != nil {
		return fmt.Errorf("accountant: block already shared as %q", b.shared.replica)
	}
	b.shared = &sharing{kv: kv, replica: replica, ttl: ttl}
	// Merge whatever peers have already spent before the first charge.
	for i := range b.spent {
		if err := b.mergeSharedLocked(i); err != nil {
			b.shared = nil
			return err
		}
	}
	return nil
}

// Shared reports whether the block runs the cross-replica protocol.
func (b *Block) Shared() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shared != nil
}

// ownerKey/spentKey name a partition's lease and spend record.
func ownerKey(i int) string { return fmt.Sprintf("owner/%d", i) }
func spentKey(i int) string { return fmt.Sprintf("spent/%d", i) }

// acquireOwnerLocked takes partition i's owner lease, polling until the
// current holder releases or its lease expires. The caller holds b.mu
// (so one local charge runs the protocol at a time) and must release
// through releaseOwnerLocked.
func (b *Block) acquireOwnerLocked(i int) error {
	s := b.shared
	deadline := time.Now().Add(4 * s.ttl)
	for {
		ok, err := s.kv.SetNXLease(budgetNS, ownerKey(i), s.replica, s.ttl)
		if err != nil {
			return fmt.Errorf("accountant: lease partition %d: %w", i, err)
		}
		if ok {
			return nil
		}
		// Held by a peer (or by a previous crashed incarnation of this
		// replica id — its lease expires like any other).
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: partition %d", ErrOwnershipTimeout, i)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// releaseOwnerLocked releases partition i's owner lease if still held by
// this replica (an expired-and-stolen lease is left alone).
func (b *Block) releaseOwnerLocked(i int) {
	s := b.shared
	s.kv.CompareDelete(budgetNS, ownerKey(i), s.replica)
}

// mergeSharedLocked max-merges partition i's shared spend record into
// the local vector. The caller holds b.mu.
func (b *Block) mergeSharedLocked(i int) error {
	var remote float64
	ok, err := b.shared.kv.Get(budgetNS, spentKey(i), &remote)
	if err != nil {
		// A poisoned spend record was deleted by the read; treat as absent
		// and re-publish from the local view (monotone, so never unsafe).
		ok = false
	}
	if ok && remote > b.spent[i] {
		if remote > b.epsG+1e-9 || math.IsNaN(remote) {
			return fmt.Errorf("accountant: shared spend %g at partition %d exceeds ε_G %g", remote, i, b.epsG)
		}
		b.spent[i] = remote
	}
	return nil
}

// publishSpentLocked writes partition i's local spend through to the
// shared store. Spend records are created as permanent pinned guards
// (SetNXLease ttl 0) and updated via CompareSwap, so a memory-bounded
// shared store can neither evict them nor lose a racing update. The
// caller holds b.mu and partition i's owner lease.
func (b *Block) publishSpentLocked(i int) error {
	s := b.shared
	for {
		var cur float64
		ok, err := s.kv.Get(budgetNS, spentKey(i), &cur)
		if err != nil {
			ok = false // poisoned record was deleted; recreate below
		}
		if !ok {
			stored, err := s.kv.SetNXLease(budgetNS, spentKey(i), b.spent[i], 0)
			if err != nil {
				return fmt.Errorf("accountant: publish partition %d: %w", i, err)
			}
			if stored {
				return nil
			}
			continue // lost a create race with a peer's first publish
		}
		if cur >= b.spent[i] {
			return nil // peer already published at least this much
		}
		swapped, err := s.kv.CompareSwap(budgetNS, spentKey(i), cur, b.spent[i])
		if err != nil {
			return fmt.Errorf("accountant: publish partition %d: %w", i, err)
		}
		if swapped {
			return nil
		}
	}
}

// ownRangeLocked is steps 1–2 of a shared payment: acquire the range's
// owner leases in ascending order, max-merging each partition's shared
// spend as its lease lands. The returned release (never nil) drops
// whatever was acquired. The caller holds b.mu and has validated the
// range.
func (b *Block) ownRangeLocked(start, end int) (release func(), err error) {
	acquired := start - 1
	release = func() {
		for i := start; i <= acquired; i++ {
			b.releaseOwnerLocked(i)
		}
	}
	for i := start; i <= end; i++ {
		if err := b.acquireOwnerLocked(i); err != nil {
			return release, err
		}
		acquired = i
		if err := b.mergeSharedLocked(i); err != nil {
			return release, err
		}
	}
	return release, nil
}

// publishRangeLocked is step 3's write-through of a charge just applied
// to [start, end]. The caller holds b.mu and the range's owner leases.
func (b *Block) publishRangeLocked(start, end int) error {
	for i := start; i <= end; i++ {
		if err := b.publishSpentLocked(i); err != nil {
			// The local charge stands (conservative: the mechanism will
			// run), but the peers cannot see it — surface loudly.
			return fmt.Errorf("accountant: charge applied locally but not published: %w", err)
		}
	}
	return nil
}

// SyncShared max-merges every partition's shared spend record into the
// local vector, so reporting (AverageSpent, MaxSpent, SpentVector) sees
// charges made by peer replicas. Read-only: no leases are taken — spends
// are monotone, so an un-leased read can only be slightly stale, never
// wrong in the unsafe direction for reporting.
func (b *Block) SyncShared() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shared == nil {
		return nil
	}
	for i := range b.spent {
		if err := b.mergeSharedLocked(i); err != nil {
			return err
		}
	}
	return nil
}
