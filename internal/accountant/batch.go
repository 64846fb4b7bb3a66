// Batch admission: the accountant leg of the session's batch plane
// (core.Session.AnswerBatch).
//
// A batch of b cache-missed queries used to cost b admission round-trips
// through the accountant's lock — one HasBudgetRange probe per query,
// each acquiring the (contended) block mutex. AdmitBatch does the same
// work under ONE lock acquisition and returns per-query verdicts, so one
// over-budget query is refused without dooming its batchmates and
// without paying the per-query locking toll.
//
// AdmitBatch is ADVISORY: each verdict answers "does every partition of
// this window still have headroom right now?" — the batch analogue of
// HasBudgetRange, evaluated for every window in one consistent snapshot.
// Verdicts are not reservations: nothing is deducted, and the
// enforcement point remains the execution-time payment, which stays
// individually atomic. A verdict can therefore go stale — a concurrent
// spender may exhaust the window between admission and payment — and the
// payment still refuses; soundness never rests on the verdict. The
// converse staleness (refusing a query whose free R1 path would have
// answered) is the batch plane's documented semantic: an exhausted
// window is refused at admission.
//
// Every admission-relevant lock acquisition (payments, budget checks,
// batch rounds) is counted on the block; see LockAcquisitions. Pure
// metric reads (SpentAt, SpentVector, AverageSpent, ...) are not counted
// — they are observers, not admission traffic.

package accountant

import (
	"fmt"
	"slices"
)

// PartitionRange identifies the partition window one batched query
// touches: [Start, End] inclusive, the same convention as PayRange.
type PartitionRange struct {
	Start, End int
}

// LockAcquisitions returns the cumulative number of admission-relevant
// lock acquisitions (PayRange, HasBudgetRange, AdmitBatch) on the block.
func (b *Block) LockAcquisitions() uint64 { return b.locks.Load() }

// AdmitBatch returns one advisory verdict per partition window under
// one lock acquisition, appended to dst[:0]: nil iff every partition of
// the window retains headroom (HasBudgetRange's predicate), evaluated
// against one consistent snapshot of the ledger. Nothing is deducted;
// PayRange remains the enforcement point. A caller that hands back the
// verdicts of its last call reuses their array.
func (b *Block) AdmitBatch(dst []error, wins []PartitionRange) []error {
	verdicts := slices.Grow(dst[:0], len(wins))[:len(wins)]
	if len(wins) == 0 {
		return verdicts
	}
	b.locks.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, w := range wins {
		if verdicts[i] = b.checkRangeLocked(w.Start, w.End); verdicts[i] != nil {
			continue
		}
		for p := w.Start; p <= w.End; p++ {
			if !b.openLocked(p) {
				verdicts[i] = fmt.Errorf("%w: partition %d at %.6g of %.6g",
					ErrBudgetExhausted, p, b.convertedLocked(p), b.epsG)
				break
			}
		}
	}
	return verdicts
}
