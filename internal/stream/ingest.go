// Package stream is Turbo's streaming ingestion front (§4.5, use case 3):
// the write-side counterpart of the core query pipeline, behind POST
// /append. A batch of arriving partitions is applied by the goroutine that
// submits it, through core.Session.AppendPartitions, in the order that
// keeps every concurrent query accountable:
//
//  1. check — the arrivals fit the domain and the dataset's room below
//     dataset.MaxRows, or the batch is refused whole.
//  2. data — each arrival's prefix row is built, unpublished.
//  3. accountants — the block grows, so a query can never name a
//     partition whose budget does not exist.
//  4. warm-start — under Mode Streaming, the new tree leaves are
//     materialized eagerly, copying the previous leaf's trained histogram
//     and heuristic state (§4.5) at ingestion time instead of on the first
//     query, which keeps first-query latency flat under load.
//  5. publish — the dataset shows the new partitions, all at once.
//
// Any number of producers may Submit concurrently; the session serializes
// their batches, each applied whole before its Submit returns, so there is
// no queue, no worker and nothing pending for a snapshot to carry. A
// snapshot holds the same lock as an arrival, so it captures every batch
// either fully applied or not at all.
package stream

import (
	"errors"
	"sync/atomic"

	"repro/internal/core"
)

// Arrival is one new partition's payload: dense per-bin row counts over
// the session's domain. A nil Counts registers an empty partition, which
// stays empty: a served dataset refuses BulkLoad, so its rows never
// change after the arrival.
type Arrival = core.Arrival

// Ticket reports the partition index range one applied batch was
// assigned. Submit returns it resolved.
type Ticket struct {
	first, count int
}

// Wait returns the inclusive partition index range assigned to the
// batch's arrivals. The batch is applied by the time Submit returns, so
// Wait never blocks and its error is always nil.
func (t *Ticket) Wait() (first, last int, err error) {
	return t.first, t.first + t.count - 1, nil
}

// Partitions returns the store's partition count as the batch left it
// (consistent with Wait's range even while later batches land).
func (t *Ticket) Partitions() int {
	return t.first + t.count
}

// Stats are the ingestion counters the server exposes in /schema.
type Stats struct {
	// Batches counts applied Submits. Epochs equals Batches: every batch
	// is applied on its own.
	Batches, Epochs int64
	// Partitions and Rows count ingested partitions and rows.
	Partitions, Rows int64
	// WarmStarted counts the tree leaves arrivals warm-started
	// (core.Session.WarmStarted): Partitions in streaming mode, 0
	// otherwise.
	WarmStarted int64
	// Shed is always 0: no Submit is refused for load.
	Shed int64
}

// Ingestor applies batched partition arrivals to one streaming (or
// partitioned) session. Safe for concurrent use by any number of
// producers.
type Ingestor struct {
	sess *core.Session

	batches, parts, rows atomic.Int64
}

// NewIngestor creates an ingestor over sess. The session must be
// partitioned or streaming: non-partitioned sessions cannot grow
// (core.Session.AppendPartitions refuses them).
func NewIngestor(sess *core.Session) (*Ingestor, error) {
	if sess == nil {
		return nil, errors.New("stream: nil session")
	}
	if sess.Tree() == nil {
		return nil, errors.New("stream: ingestion needs a partitioned or streaming session")
	}
	return &Ingestor{sess: sess}, nil
}

// Submit applies one batch of arrivals on the calling goroutine and
// returns its resolved ticket. A batch that is empty, does not fit the
// domain, or would take the dataset past dataset.MaxRows is refused whole
// and consumes no partition index.
func (in *Ingestor) Submit(arrivals ...Arrival) (*Ticket, error) {
	t := new(Ticket)
	if err := in.apply(t, arrivals); err != nil {
		return nil, err
	}
	return t, nil
}

// apply is Submit's body, kept out of line so Submit inlines and a caller
// that keeps its ticket only locally keeps it on its stack.
func (in *Ingestor) apply(t *Ticket, arrivals []Arrival) error {
	first, err := in.sess.AppendPartitions(arrivals...)
	if err != nil {
		return err
	}
	t.first, t.count = first, len(arrivals)
	// The dataset summed the batch's rows when it checked them, and its
	// prefix sums hold them: the new window's row count is one
	// subtraction, and the window exists, so NRows cannot refuse it. A
	// served dataset refuses BulkLoad, so nothing moves it since.
	rows, _ := in.sess.Dataset().NRows(first, first+len(arrivals)-1)
	in.batches.Add(1)
	in.parts.Add(int64(len(arrivals)))
	in.rows.Add(int64(rows))
	return nil
}

// Stats returns a snapshot of the ingestion counters.
func (in *Ingestor) Stats() Stats {
	batches := in.batches.Load()
	return Stats{
		Batches:     batches,
		Epochs:      batches,
		Partitions:  in.parts.Load(),
		Rows:        in.rows.Load(),
		WarmStarted: int64(in.sess.WarmStarted()),
	}
}
