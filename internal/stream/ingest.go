// Package stream is Turbo's streaming ingestion subsystem (§4.5, use case
// 3): the write-side counterpart of the core query pipeline. Partitions
// arriving over time are submitted in batches, coalesced into ordered
// ingestion epochs, and applied to the session in the order that keeps
// every concurrent query accountable:
//
//  1. accountants — the scalar block (and, in Gaussian mode, the Rényi
//     block) grow first, so a query can never name a partition whose
//     budget does not exist (Session.AppendPartitions).
//  2. dataset — the new partitions appear, initially empty.
//  3. data — each arrival's per-bin counts are bulk-loaded.
//  4. warm-start — under Mode Streaming, the new tree leaves are
//     materialized eagerly, copying the previous leaf's trained histogram
//     and heuristic state (§4.5) at ingestion time instead of on the first
//     query, which keeps first-query latency flat under load.
//
// One worker goroutine applies epochs; any number of producers may Submit
// concurrently. Submissions made while an epoch is being applied coalesce
// into the next epoch, so a burst of B batches costs O(1) epochs rather
// than B lock round-trips per layer — the batched AppendPartition that
// benchmark/'s stream_mix workload drives through POST /append.
//
// Two operational concerns ride on the same queue:
//
//   - Backpressure: WithMaxPending bounds the submission queue; an
//     overflowing Submit fails fast with ErrBacklogFull instead of letting
//     an ingest storm grow the backlog (and every waiting producer's
//     latency) without bound. The HTTP layer maps it to 503 + Retry-After.
//   - Durability: the ingestor is a persist.Snapshotter. Quiesce pauses
//     the worker at an epoch boundary; a snapshot then serializes the
//     pending (submitted but unapplied) batches, and restoring re-enqueues
//     them on the fresh session — the applied state was captured by the
//     other sections, so every partition lands exactly once.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
)

// ErrBacklogFull reports a Submit refused because the bounded submission
// queue is at capacity. The caller should shed or retry after a beat (the
// server translates this into 503 + Retry-After).
var ErrBacklogFull = errors.New("stream: ingestion backlog full")

// SectionPending tags the pending-epoch queue in session snapshots.
const SectionPending = "stream/pending"

// Arrival is one new partition's payload: dense per-bin row counts over
// the session's domain. A nil Counts registers an empty partition (rows
// can be loaded later through the dataset, e.g. row-by-row ingestion).
type Arrival struct {
	Counts []int
}

// Ticket tracks one submitted batch through its ingestion epoch.
type Ticket struct {
	done  chan struct{}
	first int
	count int
	parts int
	err   error
}

// Wait blocks until the batch's epoch has been applied and returns the
// inclusive partition index range assigned to the batch's arrivals.
func (t *Ticket) Wait() (first, last int, err error) {
	<-t.done
	if t.err != nil {
		return 0, 0, t.err
	}
	return t.first, t.first + t.count - 1, nil
}

// Partitions returns the store's partition count as of the batch's epoch
// (captured atomically with the index assignment, so it is consistent
// with Wait's range even while later epochs land). Valid after Wait.
func (t *Ticket) Partitions() int {
	<-t.done
	return t.parts
}

// Stats are the ingestion counters the server exposes in /schema.
type Stats struct {
	// Batches counts Submit calls; Epochs counts the coalesced
	// AppendPartitions rounds that applied them (Epochs ≤ Batches).
	Batches, Epochs int64
	// Partitions and Rows count ingested partitions and rows.
	Partitions, Rows int64
	// WarmStarted counts the tree leaves the ingestion pass itself created.
	// A query that names a just-appended partition before the pass reaches
	// it creates that leaf first — warm-started all the same, by the same
	// tree code — and the pass then finds it and does not count it, so
	// WarmStarted ≤ Partitions, with equality when no query raced.
	WarmStarted int64
	// Pending is the instantaneous number of batches not yet fully
	// applied: queued plus those inside the in-flight epoch.
	Pending int64
	// Shed counts Submits refused by the bounded queue (ErrBacklogFull).
	Shed int64
}

// Option configures an Ingestor at construction.
type Option func(*Ingestor)

// WithMaxPending bounds the submission queue to at most n batches awaiting
// or inside an epoch; further Submits fail with ErrBacklogFull until the
// worker drains. n <= 0 keeps the queue unbounded (the default).
func WithMaxPending(n int) Option {
	return func(in *Ingestor) { in.maxPending = n }
}

// Ingestor turns asynchronous batched partition arrivals into ordered
// ingestion epochs over one streaming (or partitioned) session. Safe for
// concurrent use by any number of producers.
type Ingestor struct {
	sess       *core.Session
	maxPending int

	mu      sync.Mutex
	pending []pendingBatch
	// spare is the array of the queue the worker last applied, which the
	// next swap makes the pending queue's.
	spare []pendingBatch
	// applying is the number of batches swapped out of pending whose
	// epoch is still being applied; Flush waits on both.
	applying int
	// paused counts active Quiesce holds; the worker starts no epoch
	// while it is positive.
	paused int
	closed bool
	// work wakes the worker (new batch, resume, close); drained is
	// signaled whenever the in-flight epoch lands or the queue empties.
	work    *sync.Cond
	drained *sync.Cond

	wg sync.WaitGroup

	batches, epochs, parts, rows, warmed, shed atomic.Int64
}

// pendingBatch is one Submit awaiting its epoch.
type pendingBatch struct {
	arrivals []Arrival
	ticket   *Ticket
}

// NewIngestor creates an ingestor over sess, starts its epoch worker, and
// registers the pending queue as the session's "stream/pending" snapshot
// section. The session must be partitioned or streaming: non-partitioned
// sessions cannot grow (core.Session.AppendPartitions refuses them).
// Close releases the worker.
func NewIngestor(sess *core.Session, opts ...Option) (*Ingestor, error) {
	if sess == nil {
		return nil, errors.New("stream: nil session")
	}
	if sess.Tree() == nil {
		return nil, errors.New("stream: ingestion needs a partitioned or streaming session")
	}
	in := &Ingestor{sess: sess}
	in.work = sync.NewCond(&in.mu)
	in.drained = sync.NewCond(&in.mu)
	for _, opt := range opts {
		opt(in)
	}
	sess.RegisterSnapshotter(in)
	in.wg.Add(1)
	go in.worker()
	return in, nil
}

// validate checks a batch's payloads against the session's domain, and
// its rows against the room the dataset has left below dataset.MaxRows,
// before any index is assigned, so a malformed batch fails fast without
// consuming partitions. Batches validated side by side can still jointly
// overflow; the dataset then refuses the later load and its ticket fails.
func (in *Ingestor) validate(arrivals []Arrival) error {
	if len(arrivals) == 0 {
		return errors.New("stream: empty batch")
	}
	ds := in.sess.Dataset()
	domSize := ds.Domain().Size()
	room := dataset.MaxRows - ds.NRowsAll()
	for i, a := range arrivals {
		if a.Counts == nil {
			continue
		}
		if len(a.Counts) != domSize {
			return fmt.Errorf("stream: arrival %d has %d bins, domain has %d", i, len(a.Counts), domSize)
		}
		for bin, c := range a.Counts {
			if c < 0 {
				return fmt.Errorf("stream: arrival %d has negative count %d at bin %d", i, c, bin)
			}
			if c > room {
				return fmt.Errorf("stream: arrival %d would take the dataset past %d rows", i, dataset.MaxRows)
			}
			room -= c
		}
	}
	return nil
}

// Submit enqueues one batch of arrivals for the next ingestion epoch and
// returns immediately with a ticket; partition indices are assigned in
// submission order when the epoch is applied. With a bounded queue
// (WithMaxPending), a Submit that would exceed the bound fails with
// ErrBacklogFull and consumes nothing.
func (in *Ingestor) Submit(arrivals ...Arrival) (*Ticket, error) {
	if err := in.validate(arrivals); err != nil {
		return nil, err
	}
	var ticket [1]*Ticket
	if err := in.enqueue([][]Arrival{arrivals}, ticket[:], true); err != nil {
		return nil, err
	}
	return ticket[0], nil
}

// enqueue appends validated batches to the pending queue and wakes the
// worker, filling tickets with one ticket per batch. It is the single
// enqueue protocol shared by Submit and the snapshot restore path;
// bounded is false only for restored batches, which were admitted once
// already. The queue keeps the batches' arrivals, not the slices that
// list them.
func (in *Ingestor) enqueue(batches [][]Arrival, tickets []*Ticket, bounded bool) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return errors.New("stream: ingestor closed")
	}
	if depth := len(in.pending) + in.applying; bounded && in.maxPending > 0 && depth >= in.maxPending {
		in.mu.Unlock()
		in.shed.Add(1)
		return fmt.Errorf("%w: %d batches queued (bound %d)", ErrBacklogFull, depth, in.maxPending)
	}
	for i, arrivals := range batches {
		tickets[i] = &Ticket{done: make(chan struct{}), count: len(arrivals)}
		in.pending = append(in.pending, pendingBatch{arrivals: arrivals, ticket: tickets[i]})
	}
	in.mu.Unlock()
	in.batches.Add(int64(len(batches)))
	in.work.Broadcast()
	return nil
}

// Append is the synchronous convenience: Submit plus Wait.
func (in *Ingestor) Append(arrivals ...Arrival) (first, last int, err error) {
	t, err := in.Submit(arrivals...)
	if err != nil {
		return 0, 0, err
	}
	return t.Wait()
}

// Flush blocks until every batch submitted before the call has been
// applied. It must not be called while the ingestor is quiesced (a
// quiesced worker applies nothing, so a non-empty queue would never
// drain).
func (in *Ingestor) Flush() {
	in.mu.Lock()
	for len(in.pending) > 0 || in.applying > 0 {
		in.drained.Wait()
	}
	in.mu.Unlock()
}

// Quiesce pauses the worker at an epoch boundary: it blocks until no
// epoch is mid-application, then keeps the worker from starting another
// until the returned resume function runs. Quiesce holds nest (each
// resume releases one); SaveState takes one automatically around a
// snapshot. Submissions stay accepted while quiesced — they accumulate
// as pending batches (and, with WithMaxPending, eventually shed).
func (in *Ingestor) Quiesce() (resume func()) {
	in.mu.Lock()
	in.paused++
	for in.applying > 0 {
		in.drained.Wait()
	}
	in.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			in.mu.Lock()
			in.paused--
			in.mu.Unlock()
			in.work.Broadcast()
		})
	}
}

// Close drains the queue, stops the worker, and fails any batch submitted
// after the close began. Idempotent. Close respects an active Quiesce:
// the final drain waits until every hold resumes, so a snapshot racing a
// forced shutdown can never capture batches as pending while the drain
// also applies them (which a restore would then double-apply). Callers
// must therefore resume their holds; SaveState always does.
func (in *Ingestor) Close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	in.mu.Unlock()
	in.work.Broadcast()
	in.wg.Wait()
}

// Stats returns a snapshot of the ingestion counters.
func (in *Ingestor) Stats() Stats {
	in.mu.Lock()
	pending := int64(len(in.pending) + in.applying)
	in.mu.Unlock()
	return Stats{
		Batches:     in.batches.Load(),
		Epochs:      in.epochs.Load(),
		Partitions:  in.parts.Load(),
		Rows:        in.rows.Load(),
		WarmStarted: in.warmed.Load(),
		Pending:     pending,
		Shed:        in.shed.Load(),
	}
}

// SnapshotSection implements persist.Snapshotter.
func (in *Ingestor) SnapshotSection() string { return SectionPending }

// SnapshotOptional marks the section as legitimately absent: sessions
// without an ingestor never write it, and an idle ingestor omits it so
// its snapshots restore anywhere.
func (in *Ingestor) SnapshotOptional() bool { return true }

// SnapshotPayload serializes the pending queue. The registry quiesces the
// ingestor first (Quiescer), so no batch can be mid-application: every
// batch is either fully applied (captured by the dataset/accountant/tree
// sections) or fully pending (captured here) — never both.
func (in *Ingestor) SnapshotPayload() ([]byte, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.applying > 0 {
		return nil, errors.New("stream: snapshot while an epoch is mid-application (quiesce first)")
	}
	if len(in.pending) == 0 {
		return nil, nil // omit the section entirely
	}
	// The "stream/pending" section: the arrivals of every submitted-but-
	// unapplied batch, in submission order, batch boundaries preserved —
	// the batch count, then per batch its arrival count, then per arrival
	// its per-bin counts (none for an empty partition).
	var e persist.Encoder
	e.PutUvarint(uint64(len(in.pending)))
	for _, b := range in.pending {
		e.PutUvarint(uint64(len(b.arrivals)))
		for _, a := range b.arrivals {
			e.PutUvarint(uint64(len(a.Counts)))
			for _, c := range a.Counts {
				e.PutInt(c)
			}
		}
	}
	return e.Payload(), nil
}

// RestorePayload re-enqueues a snapshot's pending batches on this
// ingestor's fresh session and blocks until their epochs are applied,
// so a LoadState that returns nil really has every restored partition
// queryable — and an epoch failure surfaces as the restore's error
// instead of vanishing with an unobserved ticket. The batches bypass
// the backlog bound (they were admitted once already). No partition can
// double-apply: the snapshot's applied sections never include these
// batches (see SnapshotPayload). The ingestor must not be quiesced
// during a restore (a paused worker would never apply the batches).
func (in *Ingestor) RestorePayload(payload []byte) error {
	d := persist.NewDecoder(payload)
	batches := make([][]Arrival, d.Count(1))
	for i := range batches {
		batches[i] = make([]Arrival, d.Count(1))
		for j := range batches[i] {
			if n := d.Count(1); n > 0 {
				batches[i][j].Counts = make([]int, n)
				for k := range batches[i][j].Counts {
					batches[i][j].Counts[k] = d.Int()
				}
			}
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	for i, arrivals := range batches {
		if err := in.validate(arrivals); err != nil {
			return fmt.Errorf("stream: restored batch %d: %w", i, err)
		}
	}
	tickets := make([]*Ticket, len(batches))
	if err := in.enqueue(batches, tickets, false); err != nil {
		return err
	}
	for i, t := range tickets {
		if _, _, err := t.Wait(); err != nil {
			return fmt.Errorf("stream: apply restored batch %d: %w", i, err)
		}
	}
	return nil
}

// worker applies ingestion epochs until Close. Each round swaps out the
// whole pending queue and applies it as one epoch; it idles while there
// is nothing to do or a Quiesce hold is active (the hold pauses even
// the final close-time drain — see Close).
func (in *Ingestor) worker() {
	defer in.wg.Done()
	in.mu.Lock()
	for {
		for in.paused > 0 || (!in.closed && len(in.pending) == 0) {
			if len(in.pending) == 0 {
				in.drained.Broadcast()
			}
			in.work.Wait()
		}
		if len(in.pending) == 0 { // closed with nothing left
			in.drained.Broadcast()
			in.mu.Unlock()
			return
		}
		batch := in.pending
		in.pending = in.spare[:0]
		in.applying = len(batch)
		in.mu.Unlock()
		in.applyEpoch(batch)
		// applying drops before any ticket resolves, so a producer whose
		// Wait just returned never counts its own batch in Stats().Pending.
		in.mu.Lock()
		in.applying = 0
		for _, b := range batch {
			close(b.ticket.done)
		}
		// The applied queue's array is the next swap's pending queue,
		// holding nothing a producer may reuse.
		clear(batch)
		in.spare = batch
		in.drained.Broadcast()
	}
}

// applyEpoch ingests the coalesced batches in the accountants-first order
// the package comment documents. It fills in the tickets; the worker
// closes them once the epoch no longer counts as applying.
func (in *Ingestor) applyEpoch(batch []pendingBatch) {
	k := 0
	for _, b := range batch {
		k += len(b.arrivals)
	}
	first, err := in.sess.AppendPartitions(k)
	if err != nil {
		for _, b := range batch {
			b.ticket.err = err
		}
		return
	}
	in.epochs.Add(1)
	in.parts.Add(int64(k))

	ds := in.sess.Dataset()
	next := first
	for _, b := range batch {
		b.ticket.first = next
		b.ticket.parts = first + k
		for _, a := range b.arrivals {
			if a.Counts != nil {
				if err := ds.BulkLoad(next, a.Counts); err != nil {
					// Counts were validated at Submit; a failure here means
					// batches validated side by side passed MaxRows
					// together, and the dataset refused this load whole.
					b.ticket.err = err
				} else {
					for _, c := range a.Counts {
						in.rows.Add(int64(c))
					}
				}
			}
			next++
		}
	}
	// Eagerly warm-start the epoch's tree leaves, left to right so each
	// new leaf can copy from its (possibly epoch-mate) predecessor. Under
	// Mode Partitioned (no warm-start) this is a no-op and leaves stay
	// lazy.
	if t := in.sess.Tree(); t != nil && in.sess.Mode() == core.Streaming {
		for p := first; p < first+k; p++ {
			if t.EagerWarmStart(p) {
				in.warmed.Add(1)
			}
		}
	}
}
