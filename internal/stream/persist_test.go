package stream

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/query"
)

// TestSaveStateRacesAppendStorm: snapshots taken while producers submit
// batches each capture every batch either whole or not at all. Restored
// into a fresh session, every captured partition holds its batch's rows
// and its warm-started leaf, and the books cover exactly the partitions
// the snapshot holds, for pure-ε and Gaussian accounting.
func TestSaveStateRacesAppendStorm(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		name := "pure"
		if gaussian {
			name = "gaussian"
		}
		t.Run(name, func(t *testing.T) {
			const initial = 2
			ds := testDS(t, initial)
			dom := ds.Domain()
			sess := streamingSession(t, ds, core.Streaming, gaussian)
			q := query.MustNew(dom, map[int][]int{0: {1}})
			for i := 0; i < 10; i++ { // train the last leaf away from uniform
				if _, err := sess.Answer(q.WithWindow(initial-1, initial-1)); err != nil {
					t.Fatal(err)
				}
			}
			trained := leafWeights(sess.Tree(), initial-1)
			ing, err := NewIngestor(sess)
			if err != nil {
				t.Fatal(err)
			}

			// perBin[p] is the rows per bin partition p was submitted with.
			var mu sync.Mutex
			perBin := map[int]int{}
			var producers sync.WaitGroup
			for g := 0; g < 4; g++ {
				producers.Add(1)
				go func(g int) {
					defer producers.Done()
					for b := 0; b < 6; b++ {
						batch := make([]Arrival, 1+(g+b)%2)
						for i := range batch {
							batch[i] = arrival(dom, 1+10*g+b)
						}
						first, last, err := appendBatch(ing, batch...)
						if err != nil {
							t.Errorf("producer %d: %v", g, err)
							return
						}
						mu.Lock()
						for p := first; p <= last; p++ {
							perBin[p] = 1 + 10*g + b
						}
						mu.Unlock()
					}
				}(g)
			}
			done := make(chan struct{})
			go func() { producers.Wait(); close(done) }()
			var snaps [][]byte
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last snapshot, of the whole stream
				default:
				}
				var buf bytes.Buffer
				if err := sess.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, buf.Bytes())
			}

			for i, snap := range snaps {
				ds2 := testDS(t, initial)
				s2 := streamingSession(t, ds2, core.Streaming, gaussian)
				if err := s2.LoadState(bytes.NewReader(snap)); err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				parts := ds2.Partitions()
				if got := s2.Accountant().Partitions(); got != parts {
					t.Fatalf("snapshot %d: books cover %d partitions, dataset holds %d", i, got, parts)
				}
				for p := initial; p < parts; p++ {
					if got, want := partitionRows(ds2, p), perBin[p]*dom.Size(); got != want {
						t.Fatalf("snapshot %d: partition %d holds %d rows, want %d", i, p, got, want)
					}
					h := leafWeights(s2.Tree(), p)
					if h == nil {
						t.Fatalf("snapshot %d: partition %d restored without its leaf", i, p)
					}
					for bin := range h {
						if math.Abs(h[bin]-trained[bin]) > 1e-12 {
							t.Fatalf("snapshot %d: leaf %d not warm-started at bin %d", i, p, bin)
						}
					}
				}
				if i == len(snaps)-1 && parts != ds.Partitions() {
					t.Fatalf("the last snapshot holds %d partitions, the stream %d", parts, ds.Partitions())
				}
			}
		})
	}
}

// TestPendingSectionRefused: the pending-batch section older builds wrote
// has no owner, so an envelope carrying one is refused with
// ErrUnknownSection before any layer restores, and the session is left
// as it was: its own snapshot reads byte for byte the same, and the clean
// envelope still restores into it.
func TestPendingSectionRefused(t *testing.T) {
	ds := testDS(t, 2)
	src := streamingSession(t, ds, core.Streaming, false)
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 1)
	if _, err := src.Answer(q); err != nil {
		t.Fatal(err)
	}
	var clean bytes.Buffer
	if err := src.SaveState(&clean); err != nil {
		t.Fatal(err)
	}
	payloads, err := persist.ReadSections(bytes.NewReader(clean.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	order := slices.Sorted(maps.Keys(payloads))
	var pending bytes.Buffer
	w, err := persist.NewWriter(&pending)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if err := w.WriteSection(name, payloads[name]); err != nil {
			t.Fatal(err)
		}
	}
	// One batch of one empty arrival, as the section was laid out.
	var e persist.Encoder
	e.PutUvarint(1)
	e.PutUvarint(1)
	e.PutUvarint(0)
	if err := w.WriteSection("stream/pending", e.Payload()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	dst := streamingSession(t, testDS(t, 2), core.Streaming, false)
	var before bytes.Buffer
	if err := dst.SaveState(&before); err != nil {
		t.Fatal(err)
	}
	err = dst.LoadState(bytes.NewReader(pending.Bytes()))
	if !errors.Is(err, persist.ErrUnknownSection) {
		t.Fatalf("restore of a pending section: %v, want ErrUnknownSection", err)
	}
	var after bytes.Buffer
	if err := dst.SaveState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the refused restore changed the session")
	}
	if err := dst.LoadState(bytes.NewReader(clean.Bytes())); err != nil {
		t.Fatalf("the clean envelope after the refusal: %v", err)
	}
	if a, err := dst.Answer(q); err != nil || a.Source != core.SourceExactHit {
		t.Fatalf("restored answer %+v, %v, want an exact hit", a, err)
	}
}

// TestIdleIngestorSnapshotRestoresAnywhere: an ingestor adds no section of
// its own, so a session's snapshots restore into sessions without one.
func TestIdleIngestorSnapshotRestoresAnywhere(t *testing.T) {
	ds := testDS(t, 2)
	sess := streamingSession(t, ds, core.Streaming, false)
	if _, err := NewIngestor(sess); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sess.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	bare := streamingSession(t, ds, core.Streaming, false)
	if err := bare.LoadState(&snap); err != nil {
		t.Fatal(err)
	}
}
