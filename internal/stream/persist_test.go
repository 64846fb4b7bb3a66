package stream

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/query"
)

// TestQuiesceBarrier checks that a quiesced worker applies nothing, that
// submissions keep queueing, and that resume drains them.
func TestQuiesceBarrier(t *testing.T) {
	ds := testDS(t, 2)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	dom := ds.Domain()

	resume := ing.Quiesce()
	tk, err := ing.Submit(arrival(dom, 5))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := ds.Partitions(); got != 2 {
		t.Fatalf("quiesced ingestor applied an epoch: %d partitions", got)
	}
	if p := ing.Stats().Pending; p != 1 {
		t.Fatalf("pending = %d, want 1", p)
	}
	// Quiesce holds nest: a second hold plus one resume stays paused.
	resume2 := ing.Quiesce()
	resume2()
	resume2() // resume functions are once-only; double call is safe
	time.Sleep(10 * time.Millisecond)
	if got := ds.Partitions(); got != 2 {
		t.Fatalf("nested quiesce released early: %d partitions", got)
	}
	resume()
	if _, _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := ds.Partitions(); got != 3 {
		t.Fatalf("after resume: %d partitions, want 3", got)
	}
}

// TestBacklogBound checks the backpressure satellite: a bounded queue
// sheds overflowing Submits with ErrBacklogFull without consuming
// anything, and accepts again once the worker drains.
func TestBacklogBound(t *testing.T) {
	ds := testDS(t, 2)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess, WithMaxPending(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	dom := ds.Domain()

	resume := ing.Quiesce()
	for i := 0; i < 2; i++ {
		if _, err := ing.Submit(arrival(dom, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ing.Submit(arrival(dom, 1)); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("overflow err = %v, want ErrBacklogFull", err)
	}
	if shed := ing.Stats().Shed; shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	resume()
	ing.Flush()
	if got := ds.Partitions(); got != 4 {
		t.Fatalf("after drain: %d partitions, want 4 (the shed batch must not land)", got)
	}
	if _, err := ing.Submit(arrival(dom, 1)); err != nil {
		t.Fatalf("post-drain submit refused: %v", err)
	}
	ing.Flush()
}

// TestSaveLoadPendingEpochs is the mid-stream durability property on the
// Gaussian path: a snapshot taken under the quiesce barrier captures the
// submitted-but-unapplied epochs, and restoring replays them on the
// fresh session exactly once — no partition double-applies, and the
// Rényi books cover everything queryable.
func TestSaveLoadPendingEpochs(t *testing.T) {
	ds1 := testDS(t, 3)
	dom := ds1.Domain()
	s1 := streamingSession(t, ds1, core.Streaming, true)
	ing1, err := NewIngestor(s1)
	if err != nil {
		t.Fatal(err)
	}

	// One applied arrival, then warm the caches with a query.
	applied := arrival(dom, 7)
	if _, _, err := ing1.Append(applied); err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 3)
	if _, err := s1.Answer(q); err != nil {
		t.Fatal(err)
	}

	// Two batches submitted under the quiesce barrier stay pending.
	resume := ing1.Quiesce()
	if _, err := ing1.Submit(arrival(dom, 2), arrival(dom, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := ing1.Submit(arrival(dom, 4)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s1.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	// Rebuild the applied-state dataset (same construction, same applied
	// arrival — hence the same partition count and version the snapshot
	// was taken at) and restore.
	ds2 := testDS(t, 3)
	ds2.AppendPartitions(1)
	if err := ds2.BulkLoad(3, applied.Counts); err != nil {
		t.Fatal(err)
	}
	s2 := streamingSession(t, ds2, core.Streaming, true)
	ing2, err := NewIngestor(s2)
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if err := s2.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	ing2.Flush()

	// The three pending arrivals landed exactly once: 4 applied + 3.
	if got := ds2.Partitions(); got != 7 {
		t.Fatalf("restored stream has %d partitions, want 7", got)
	}
	for p, wantPerBin := range map[int]int{4: 2, 5: 3, 6: 4} {
		want := wantPerBin * dom.Size()
		if got := ds2.PartitionN(p); got != want {
			t.Fatalf("partition %d has %d rows, want %d (exactly-once)", p, got, want)
		}
	}
	if got := s2.Accountant().Partitions(); got != 7 || s2.Accountant().Orders() == nil {
		t.Fatalf("accountant covers %d partitions over grid %v, want 7 over Rényi orders", got, s2.Accountant().Orders())
	}

	// Pre-snapshot state survived (free exact hit), and the replayed
	// partitions answer fresh queries with real payments.
	spent := s2.AverageSpent()
	a, err := s2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != core.SourceExactHit || s2.AverageSpent() != spent {
		t.Fatalf("pre-snapshot query after restore: %+v", a)
	}
	if _, err := s2.Answer(q.WithWindow(6, 6)); err != nil {
		t.Fatal(err)
	}
	if s2.Accountant().SpentAt(6) <= 0 {
		t.Fatal("replayed partition answered without charging the books")
	}

	// A snapshot with pending epochs refuses to restore where no ingestor
	// owns the stream section.
	ds3 := testDS(t, 3)
	ds3.AppendPartitions(1)
	if err := ds3.BulkLoad(3, applied.Counts); err != nil {
		t.Fatal(err)
	}
	s3 := streamingSession(t, ds3, core.Streaming, true)
	if err := s3.LoadState(bytes.NewReader(snap.Bytes())); !errors.Is(err, persist.ErrUnknownSection) {
		t.Fatalf("ingestor-less restore of pending epochs: %v, want ErrUnknownSection", err)
	}

	resume()
	ing1.Close()
}

// TestIdleIngestorSnapshotRestoresAnywhere checks the optional-section
// semantics: an idle ingestor contributes nothing, so its snapshots
// restore into sessions without one.
func TestIdleIngestorSnapshotRestoresAnywhere(t *testing.T) {
	ds := testDS(t, 2)
	sess := streamingSession(t, ds, core.Streaming, false)
	ing, err := NewIngestor(sess)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	var snap bytes.Buffer
	if err := sess.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	bare := streamingSession(t, ds, core.Streaming, false)
	if err := bare.LoadState(&snap); err != nil {
		t.Fatal(err)
	}
}
