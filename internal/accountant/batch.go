// Batch admission and batch payment composition: the accountant leg of
// the session's batch plane (core.Session.AnswerBatch).
//
// A batch of b cache-missed queries used to cost b admission round-trips
// through the accountant's lock — one HasBudgetRange probe or payment
// attempt per query, each acquiring the (contended) block mutex. The
// batch APIs here do the same work under ONE lock acquisition and return
// per-query verdicts, so one over-budget query is refused without
// dooming its batchmates and without paying the per-query locking toll.
//
// Two APIs, with deliberately different strength:
//
//   - AdmitBatch is ADVISORY: each verdict answers "does every partition
//     of this window still have headroom right now?" — the batch
//     analogue of HasBudgetRange, evaluated for every window in one
//     consistent snapshot. Verdicts are not reservations: nothing is
//     deducted, and the enforcement point remains the execution-time
//     payment, which stays individually atomic. A verdict can therefore
//     go stale — a concurrent spender may exhaust the window between
//     admission and payment — and the payment still refuses; soundness
//     never rests on the verdict. The converse staleness (refusing a
//     query whose free R1 path would have answered) is the batch plane's
//     documented semantic: an exhausted window is refused at admission.
//
//   - PayRangeBatch is a REAL payment: each charge is applied with
//     exactly PayRange's atomicity (check all partitions, then deduct),
//     sequentially under one lock acquisition, with a per-charge
//     verdict. Charges later in the batch observe earlier accepted
//     charges, exactly as if they had been paid in order.
//
// Every admission-relevant lock acquisition (payments, budget checks,
// batch rounds) is counted on the block; see LockAcquisitions. Pure
// metric reads (SpentAt, SpentVector, AverageSpent, ...) are not counted
// — they are observers, not admission traffic.

package accountant

import "fmt"

// PartitionRange identifies the partition window one batched query
// touches: [Start, End] inclusive, the same convention as PayRange.
type PartitionRange struct {
	Start, End int
}

// RangeCharge is one query's charge against a partition window, for
// batch payment composition.
type RangeCharge struct {
	Start, End int
	Cost       Cost
}

// LockAcquisitions returns the cumulative number of admission-relevant
// lock acquisitions (PayRange, HasBudgetRange, AdmitBatch,
// PayRangeBatch) on the block.
func (b *Block) LockAcquisitions() uint64 { return b.locks.Load() }

// AdmitBatch returns one advisory verdict per partition window under
// one lock acquisition: nil iff every partition of the window retains
// headroom (HasBudgetRange's predicate), evaluated against one
// consistent snapshot of the ledger. Nothing is deducted; PayRange
// remains the enforcement point.
func (b *Block) AdmitBatch(wins []PartitionRange) []error {
	verdicts := make([]error, len(wins))
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

// PayRangeBatch applies a batch of range charges under one lock
// acquisition, returning one verdict per charge. Each charge keeps
// PayRange's atomicity — if any partition of its window would exceed
// its budget, that charge deducts nothing anywhere — and later charges
// observe earlier accepted ones.
func (b *Block) PayRangeBatch(charges []RangeCharge) []error {
	verdicts := make([]error, len(charges))
	if len(charges) == 0 {
		return verdicts
	}
	b.locks.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, ch := range charges {
		verdicts[i] = b.payRangeLocked(ch.Start, ch.End, ch.Cost)
	}
	return verdicts
}
