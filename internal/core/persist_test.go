package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/store"
)

func TestSaveLoadNonPartitioned(t *testing.T) {
	dom, ds := buildDS(t, 1)
	cfg := defaultCfg(NonPartitioned)
	s1, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a}}))
		}
	}
	for _, q := range qs {
		if _, err := s1.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// A restored session over the same dataset picks up where the first
	// left off: same budget, exact hits for repeats, trained histogram.
	s2, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.AverageSpent() != s1.AverageSpent() {
		t.Fatalf("restored spend %g != original %g", s2.AverageSpent(), s1.AverageSpent())
	}
	if s2.Queries() != 0 {
		t.Fatalf("restored session counts %d answers, want 0: counters are not restored", s2.Queries())
	}
	spent := s2.AverageSpent()
	a, err := s2.Answer(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceExactHit {
		t.Fatalf("repeat after restore = %s, want exact-hit", a.Source)
	}
	if s2.AverageSpent() != spent {
		t.Fatal("restored exact hit consumed budget")
	}
	// Histogram survived: its training state matches.
	if s2.PMW().Histogram().Updates() != s1.PMW().Histogram().Updates() {
		t.Fatal("histogram update count lost")
	}
}

func TestSaveLoadPartitioned(t *testing.T) {
	dom, ds := buildDS(t, 8)
	cfg := defaultCfg(Partitioned)
	s1, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 5)
	for i := 0; i < 10; i++ {
		if _, err := s1.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	nodesBefore := s1.Tree().Nodes()
	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Tree().Nodes() != nodesBefore {
		t.Fatalf("restored %d nodes, want %d", s2.Tree().Nodes(), nodesBefore)
	}
	// Same window: exact hit for free.
	spent := s2.AverageSpent()
	a, err := s2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceExactHit || s2.AverageSpent() != spent {
		t.Fatalf("repeat after restore = %+v", a)
	}
}

func TestLoadStateValidation(t *testing.T) {
	dom, ds := buildDS(t, 2)
	cfg := defaultCfg(Partitioned)
	s1, _ := NewSession(cfg, ds)
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	if _, err := s1.Answer(q); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s1.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()

	// Mode mismatch.
	_, dsB := buildDS(t, 2)
	wrongMode, _ := NewSession(defaultCfg(NonPartitioned), dsB)
	if err := wrongMode.LoadState(bytes.NewReader(raw)); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	// Another dataset, one row more in a partition: its caches would be
	// stale, so the snapshot is refused.
	_, dsMore := buildDS(t, 2)
	if err := addCount(dsMore, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s3, _ := NewSession(cfg, dsMore)
	if err := s3.LoadState(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale snapshot accepted: %v", err)
	}
	// Loading after queries is refused.
	_, dsC := buildDS(t, 2)
	s4, _ := NewSession(cfg, dsC)
	if _, err := s4.Answer(q); err != nil {
		t.Fatal(err)
	}
	if err := s4.LoadState(bytes.NewReader(raw)); err == nil {
		t.Fatal("LoadState after queries accepted")
	}
	// Garbage input.
	_, dsD := buildDS(t, 2)
	s5, _ := NewSession(cfg, dsD)
	if err := s5.LoadState(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestSaveLoadPersistDataset covers the in-memory-store deployment
// (turbo-server -state): every snapshot carries the dataset itself, so a
// checkpoint taken after mid-stream growth restores onto a fresh initial
// build — the snapshot's first partitions are the build's, and the rest,
// with the books' coverage of them, are appended from the section.
func TestSaveLoadPersistDataset(t *testing.T) {
	dom, ds1 := buildDS(t, 2)
	cfg := defaultCfg(Streaming)
	s1, err := NewSession(cfg, ds1)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	for e := 0; e < 2; e++ {
		w := appendWeek(t, s1)
		if _, err := s1.Answer(q.WithWindow(0, w)); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s1.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	// Fresh boot: only the initial 2 partitions exist, like a restarted
	// server rebuilding its synthetic dataset.
	_, ds2 := buildDS(t, 2)
	s2, err := NewSession(cfg, ds2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if ds2.Partitions() != 4 {
		t.Fatalf("restored dataset has %d partitions, want 4", ds2.Partitions())
	}
	for p := 0; p < 4; p++ {
		if !slices.Equal(ds2.PartitionCounts(p), ds1.PartitionCounts(p)) || partitionRows(ds2, p) != partitionRows(ds1, p) {
			t.Fatalf("partition %d has %d rows, want %d", p, partitionRows(ds2, p), partitionRows(ds1, p))
		}
		if got, want := s2.Accountant().SpentVector()[p], s1.Accountant().SpentVector()[p]; got != want {
			t.Fatalf("partition %d spend %g, want %g", p, got, want)
		}
	}
	// Pre-snapshot windows repeat free, and the restored stream keeps
	// growing.
	a, err := s2.Answer(q.WithWindow(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceExactHit {
		t.Fatalf("repeat after restore = %s, want exact-hit", a.Source)
	}
	w := appendWeek(t, s2)
	if _, err := s2.Answer(q.WithWindow(w, w)); err != nil {
		t.Fatal(err)
	}

	// A snapshot under a foreign config is refused by the identity
	// section BEFORE the dataset section can append: the target stays
	// fully usable (not poisoned, data untouched).
	_, dsF := buildDS(t, 2)
	foreignCfg := defaultCfg(Streaming)
	foreignCfg.EpsilonGlobal = cfg.EpsilonGlobal / 2
	foreign, err := NewSession(foreignCfg, dsF)
	if err != nil {
		t.Fatal(err)
	}
	err = foreign.LoadState(bytes.NewReader(snap.Bytes()))
	var se *persist.SectionError
	if err == nil || !errors.As(err, &se) || se.Section != "core/identity" {
		t.Fatalf("foreign-config dataset snapshot: %v, want core/identity refusal", err)
	}
	if dsF.Partitions() != 2 {
		t.Fatalf("identity refusal mutated the dataset: %d partitions", dsF.Partitions())
	}
	if _, err := foreign.Answer(q.WithWindow(0, 1)); err != nil {
		t.Fatalf("query after identity refusal refused: %v (session must stay usable)", err)
	}
}

// datasetSectionCounts decodes a "dataset/partitions" payload over the
// domain's bins, and encodeDatasetSection writes one back, in
// datasetSection's layout (a partition may be given more or fewer bins).
func datasetSectionCounts(t *testing.T, p []byte, bins int) [][]uint64 {
	t.Helper()
	dec := persist.NewDecoder(p)
	parts := make([][]uint64, dec.Count(bins))
	for i := range parts {
		parts[i] = make([]uint64, bins)
		for b := range parts[i] {
			parts[i][b] = dec.Uvarint()
		}
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	return parts
}

func encodeDatasetSection(parts [][]uint64) []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(parts)))
	for _, counts := range parts {
		for _, c := range counts {
			e.PutUvarint(c)
		}
	}
	return e.Payload()
}

// TestLoadStateRefusesPoisonedDataset: a dataset section holding a count
// past dataset.MaxRows, appended partitions whose rows take the dataset
// past it, or a partition one bin short is refused while the section
// stages — before the books grow over the snapshot's appended partitions
// and before any section restores. The refusal is a SectionError naming
// the section: the books, the partition count and the exact cache are as
// they were, and the intact snapshot then restores into the same session.
func TestLoadStateRefusesPoisonedDataset(t *testing.T) {
	dom, ds := buildDS(t, 2)
	cfg := defaultCfg(Streaming)
	src, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	for e := 0; e < 2; e++ {
		w := appendWeek(t, src)
		if _, err := src.Answer(q.WithWindow(0, w)); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()

	for _, tc := range []struct {
		name, want string
		poison     func([][]uint64)
	}{
		{"count-past-max-rows", "has count 9007199254740992 at bin 1",
			func(parts [][]uint64) { parts[3][1] = dataset.MaxRows + 1 }},
		{"suffix-past-max-rows", "would take the dataset past",
			func(parts [][]uint64) { parts[2][0], parts[3][0] = dataset.MaxRows/2, dataset.MaxRows/2 }},
		{"short-partition", "payload ends inside a value",
			func(parts [][]uint64) { parts[3] = parts[3][:len(parts[3])-1] }},
	} {
		bad := rewriteSections(t, raw, func(name string, p []byte) []byte {
			if name != "dataset/partitions" {
				return p
			}
			parts := datasetSectionCounts(t, p, dom.Size())
			tc.poison(parts)
			return encodeDatasetSection(parts)
		})
		_, fresh := buildDS(t, 2)
		dst, err := NewSession(cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		spent := dst.Accountant().SpentVector()
		err = dst.LoadState(bytes.NewReader(bad))
		var se *persist.SectionError
		if !errors.As(err, &se) || se.Section != "dataset/partitions" || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: LoadState = %v, want a pure refusal of dataset/partitions saying %q", tc.name, err, tc.want)
		}
		if got := dst.Accountant().SpentVector(); !slices.Equal(got, spent) {
			t.Fatalf("%s: the refusal moved the books %v to %v", tc.name, spent, got)
		}
		if n, parts := dst.Accountant().Partitions(), fresh.Partitions(); n != 2 || parts != 2 {
			t.Fatalf("%s: the refusal left the books over %d partitions and the dataset with %d, want 2 and 2",
				tc.name, n, parts)
		}
		if n := dst.StoreStats().Entries; n != 0 {
			t.Fatalf("%s: the refusal left %d cached releases, want none", tc.name, n)
		}
		if err := dst.LoadState(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: the intact snapshot after the refusal: %v", tc.name, err)
		}
		if fresh.Partitions() != 4 {
			t.Fatalf("%s: the intact restore left %d partitions, want 4", tc.name, fresh.Partitions())
		}
	}
}

// TestRestoreRefusesForeignPrefix: a restore only grows the dataset, so a
// snapshot whose first partitions are not the session's own — here one
// bin of partition 0 holds one row more — is refused by a SectionError
// naming dataset/partitions, in non-partitioned mode (whose one PMW was
// calibrated at NewSession for the session's rows) and in streaming mode
// (whose snapshot also carries an appended partition). The session keeps
// its partitions, rows and books, and still answers.
func TestRestoreRefusesForeignPrefix(t *testing.T) {
	for _, mode := range []Mode{NonPartitioned, Streaming} {
		t.Run(mode.String(), func(t *testing.T) {
			parts := 1
			if mode == Streaming {
				parts = 2
			}
			dom, ds := buildDS(t, parts)
			cfg := defaultCfg(mode)
			src, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			q := query.MustNew(dom, map[int][]int{0: {1}})
			if mode == Streaming {
				appendWeek(t, src)
				q = q.WithWindow(0, parts)
			}
			if _, err := src.Answer(q); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := src.SaveState(&snap); err != nil {
				t.Fatal(err)
			}

			_, other := buildDS(t, parts)
			if err := addCount(other, 0, dom.Encode([]int{1, 2}), 1); err != nil {
				t.Fatal(err)
			}
			dst, err := NewSession(cfg, other)
			if err != nil {
				t.Fatal(err)
			}
			rows := other.NRowsAll()
			err = loadAllOrNothing(t, dst, snap.Bytes())
			if refusingSection(err) != "dataset/partitions" || !strings.Contains(err.Error(), "partition 0") {
				t.Fatalf("snapshot of another dataset: err = %v, want a dataset/partitions refusal naming partition 0", err)
			}
			if other.Partitions() != parts || other.NRowsAll() != rows || dst.Accountant().Partitions() != parts {
				t.Fatalf("the refusal left %d partitions of %d rows and books over %d, want %d, %d and %d",
					other.Partitions(), other.NRowsAll(), dst.Accountant().Partitions(), parts, rows, parts)
			}
			q = query.MustNew(dom, map[int][]int{0: {1}})
			if mode == Streaming {
				q = q.WithWindow(0, parts-1)
			}
			ans, err := dst.Answer(q)
			if err != nil || ans.Source == SourceExactHit {
				t.Fatalf("answer after the refusal: %+v, %v; want a fresh paid answer", ans, err)
			}
		})
	}
}

// TestLoadStateErrorTaxonomy pins the error hygiene down: envelope and
// section failures surface as typed, wrapped errors naming the offender
// instead of raw gob decode noise.
func TestLoadStateErrorTaxonomy(t *testing.T) {
	dom, ds := buildDS(t, 2)
	cfg := defaultCfg(Partitioned)
	s1, _ := NewSession(cfg, ds)
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	if _, err := s1.Answer(q); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s1.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	fresh := func() *Session {
		s, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Not a snapshot at all.
	if err := fresh().LoadState(strings.NewReader("definitely not a snapshot")); !errors.Is(err, persist.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// Truncated at several depths: always the typed truncation error.
	for _, cut := range []int{10, len(raw) / 2, len(raw) - 1} {
		if err := fresh().LoadState(bytes.NewReader(raw[:cut])); !errors.Is(err, persist.ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	// Restore into a session that already served traffic.
	busy := fresh()
	if _, err := busy.Answer(q); err != nil {
		t.Fatal(err)
	}
	if err := busy.LoadState(bytes.NewReader(raw)); !errors.Is(err, ErrAlreadyServing) {
		t.Fatalf("err = %v, want ErrAlreadyServing", err)
	}
	// A corrupted section payload names the offending section, and —
	// staged before any section applies — leaves the session as it was,
	// serving.
	var se *persist.SectionError
	corrupt := fresh()
	err := loadAllOrNothing(t, corrupt, replaceSection(t, raw, "tree/nodes", []byte("corrupted payload bytes")))
	if !errors.As(err, &se) {
		t.Fatalf("corrupt section: err = %v, want a SectionError", err)
	} else if se.Section != "tree/nodes" {
		t.Fatalf("SectionError names %q, want tree/nodes", se.Section)
	}
	if _, err := corrupt.Answer(q); err != nil {
		t.Fatalf("query after a refused section: %v", err)
	}
	// Envelope-level failures never mutate either.
	clean := fresh()
	if err := loadAllOrNothing(t, clean, raw[:len(raw)/2]); !errors.Is(err, persist.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated alone", err)
	}
	if _, err := clean.Answer(q); err != nil {
		t.Fatalf("query after envelope-level failure refused: %v", err)
	}
}

// TestSecondLoadStateRefused: a session restores once. A LoadState after
// one that succeeded is ErrAlreadyServing and changes nothing, whatever
// the snapshot's counters read: here a snapshot of a session that only
// appended (no answer counted) and one of a session that answered. A
// refused LoadState leaves the restore window open for the next.
func TestSecondLoadStateRefused(t *testing.T) {
	dom, _ := buildDS(t, 2)
	cfg := defaultCfg(Streaming)
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 1)
	for name, drive := range map[string]func(*Session) error{
		"appended": func(s *Session) error {
			_, err := s.AppendPartitions(Arrival{Counts: []int{5, 6, 7, 8, 1, 2, 3, 4}})
			return err
		},
		"answered": func(s *Session) error {
			_, err := s.Answer(q)
			return err
		},
	} {
		_, ds := buildDS(t, 2)
		src, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if err := drive(src); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := src.SaveState(&snap); err != nil {
			t.Fatal(err)
		}
		_, ds = buildDS(t, 2)
		dst, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadState(strings.NewReader("not a snapshot")); !errors.Is(err, persist.ErrBadMagic) {
			t.Fatalf("%s: junk: err = %v, want ErrBadMagic", name, err)
		}
		if err := dst.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("%s: the restore after a refused one: %v", name, err)
		}
		var before, after bytes.Buffer
		if err := dst.SaveState(&before); err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadState(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrAlreadyServing) {
			t.Fatalf("%s: second restore: err = %v, want ErrAlreadyServing", name, err)
		}
		if err := dst.SaveState(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s: the refused second restore changed the session", name)
		}
	}
}

// loadAllOrNothing loads snap into s, a session that has answered
// nothing, and fails the test unless a refused load leaves s as it was:
// the same snapshot bytes, no spend and no answers.
func loadAllOrNothing(t *testing.T, s *Session, snap []byte) error {
	t.Helper()
	var before, after bytes.Buffer
	if err := s.SaveState(&before); err != nil {
		t.Fatal(err)
	}
	err := s.LoadState(bytes.NewReader(snap))
	if err == nil {
		return nil
	}
	if err := s.SaveState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatalf("the refused load (%v) changed the session's snapshot", err)
	}
	if s.Accountant().MaxSpent() != 0 || s.Queries() != 0 {
		t.Fatalf("the refused load (%v) moved the books (max spent %g) or the counters (%d queries)",
			err, s.Accountant().MaxSpent(), s.Queries())
	}
	return err
}

// requireEqualRDP asserts two sessions' Rényi books agree exactly:
// consumed curve and converted spend per partition.
func requireEqualRDP(t *testing.T, s1, s2 *Session) {
	t.Helper()
	b1, b2 := s1.Accountant(), s2.Accountant()
	if b1.Orders() == nil || b2.Orders() == nil {
		t.Fatal("expected Gaussian sessions")
	}
	if b1.Partitions() != b2.Partitions() {
		t.Fatalf("books cover %d and %d partitions", b1.Partitions(), b2.Partitions())
	}
	for p := 0; p < b1.Partitions(); p++ {
		c1, c2 := curveAt(t, b1, p), curveAt(t, b2, p)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("partition %d order %g: restored curve %g, want %g",
					p, b1.Orders()[i], c2[i], c1[i])
			}
		}
		if b1.SpentVector()[p] != b2.SpentVector()[p] {
			t.Fatalf("partition %d converted spend differs", p)
		}
	}
}

// TestSaveLoadGaussianNonPartitioned replaces the old refusal test: a
// Gaussian/RDP session round-trips through SaveState/LoadState, curves
// included, and the restored admission layer keeps enforcing.
func TestSaveLoadGaussianNonPartitioned(t *testing.T) {
	dom, ds := buildDS(t, 1)
	cfg := defaultCfg(NonPartitioned)
	cfg.Gaussian = true
	cfg.DeltaGlobal = 1e-6
	s1, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for p := 0; p < 2; p++ {
		for a := 0; a < 4; a++ {
			qs = append(qs, query.MustNew(dom, map[int][]int{0: {p}, 1: {a}}))
		}
	}
	for _, q := range qs {
		if _, err := s1.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	if s1.AverageSpent() <= 0 {
		t.Fatal("warmup never spent")
	}
	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	s2, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	requireEqualRDP(t, s1, s2)
	if s2.AverageSpent() != s1.AverageSpent() || s2.Queries() != 0 {
		t.Fatalf("restored spend/queries %g/%d, want %g/0",
			s2.AverageSpent(), s2.Queries(), s1.AverageSpent())
	}
	// Repeats after restore are free exact hits with the same values.
	spent := s2.AverageSpent()
	for _, q := range qs {
		a2, err := s2.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if a2.Source != SourceExactHit {
			t.Fatalf("repeat after restore = %s, want exact-hit", a2.Source)
		}
	}
	if s2.AverageSpent() != spent {
		t.Fatal("restored exact hits consumed budget")
	}
}

// appendWeek appends the next week of a buildDS-shaped stream to s's
// dataset through the session, and returns its index.
func appendWeek(t testing.TB, s *Session) int {
	t.Helper()
	dom, w := s.Dataset().Domain(), s.Dataset().Partitions()
	counts := make([]int, dom.Size())
	for a := 0; a < 4; a++ {
		counts[dom.Encode([]int{1, a})] = 1000 + 100*a + 20*w
		counts[dom.Encode([]int{0, a})] = 4000 - 150*a
	}
	return arrive(t, s, counts)
}

// TestSaveLoadMidStream is the streaming persistence round-trip: a session
// saves mid-stream (after several AppendPartitions epochs), a fresh session
// restores it, and the stream continues — tree state, exact-cache entries,
// and scalar budgets all survive, and post-restore appends keep working.
func TestSaveLoadMidStream(t *testing.T) {
	dom, ds := buildDS(t, 2)
	cfg := defaultCfg(Streaming)
	s1, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	answerAll := func(s *Session, hi int) {
		t.Helper()
		for w := 0; w <= hi; w++ {
			if _, err := s.Answer(q.WithWindow(w, hi)); err != nil {
				t.Fatal(err)
			}
		}
	}
	answerAll(s1, 1)
	// Two mid-stream epochs before the snapshot.
	for e := 0; e < 2; e++ {
		w := appendWeek(t, s1)
		answerAll(s1, w)
	}
	if ds.Partitions() != 4 {
		t.Fatalf("stream has %d partitions, want 4", ds.Partitions())
	}

	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	s2, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	// Tree state and scalar budgets survive, partition by partition.
	if s2.Tree().Nodes() != s1.Tree().Nodes() {
		t.Fatalf("restored %d nodes, want %d", s2.Tree().Nodes(), s1.Tree().Nodes())
	}
	for p := 0; p < ds.Partitions(); p++ {
		if got, want := s2.Accountant().SpentVector()[p], s1.Accountant().SpentVector()[p]; got != want {
			t.Fatalf("partition %d spend %g, want %g", p, got, want)
		}
	}
	// Exact-cache entries survive: a pre-snapshot window repeats free.
	spent := s2.AverageSpent()
	a, err := s2.Answer(q.WithWindow(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceExactHit || s2.AverageSpent() != spent {
		t.Fatalf("pre-snapshot window after restore: %+v", a)
	}

	// The stream continues on the restored session: append, load, query.
	w := appendWeek(t, s2)
	if s2.Accountant().Partitions() != ds.Partitions() {
		t.Fatalf("post-restore append: accountant %d vs dataset %d",
			s2.Accountant().Partitions(), ds.Partitions())
	}
	a, err = s2.Answer(q.WithWindow(w, w))
	if err != nil {
		t.Fatal(err)
	}
	if a.Paid <= 0 {
		t.Fatal("fresh partition answered for free after restore")
	}
	if s := s2.Accountant().SpentVector()[w]; s <= 0 {
		t.Fatal("post-restore epoch never charged")
	}
}

// TestSaveLoadGaussianMidStream replaces the old symmetric-refusal test:
// a Rényi-accounted streaming session saves mid-stream and a fresh one
// restores curves, tree state, and caches, then keeps streaming. Accounting mode remains part of the snapshot identity: a
// scalar snapshot still cannot restore into a Gaussian session (and vice
// versa), now as a typed meta mismatch instead of a blanket refusal.
func TestSaveLoadGaussianMidStream(t *testing.T) {
	dom, ds := buildDS(t, 2)
	cfg := defaultCfg(Streaming)
	cfg.Gaussian = true
	cfg.DeltaGlobal = 1e-6
	s1, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	w := appendWeek(t, s1)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	for hi := 0; hi <= w; hi++ {
		if _, err := s1.Answer(q.WithWindow(0, hi)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	s2, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	requireEqualRDP(t, s1, s2)
	if s2.Tree().Nodes() != s1.Tree().Nodes() {
		t.Fatalf("restored %d nodes, want %d", s2.Tree().Nodes(), s1.Tree().Nodes())
	}
	// A pre-snapshot window repeats free, and the stream continues.
	spent := s2.AverageSpent()
	a, err := s2.Answer(q.WithWindow(0, w))
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceExactHit || s2.AverageSpent() != spent {
		t.Fatalf("pre-snapshot window after restore: %+v", a)
	}
	w2 := appendWeek(t, s2)
	if _, err := s2.Answer(q.WithWindow(w2, w2)); err != nil {
		t.Fatal(err)
	}
	if s2.Accountant().SpentVector()[w2] <= 0 {
		t.Fatal("post-restore epoch never charged the books")
	}

	// Accounting mode stays part of the snapshot identity.
	pure, err := NewSession(defaultCfg(Streaming), ds)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := pure.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	g2, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	// The scalar snapshot's accounting is not the Gaussian session's:
	// refused up front, before anything mutates.
	err = g2.LoadState(&snap)
	var se *persist.SectionError
	if !errors.As(err, &se) || se.Section != "core/identity" {
		t.Fatalf("scalar snapshot into Gaussian session: %v, want a recoverable core/identity refusal", err)
	}
	// A pure validation mismatch mutates nothing: the refused session
	// stays fully usable (not poisoned).
	if _, err := g2.Answer(q.WithWindow(0, 0)); err != nil {
		t.Fatalf("query after validation-only restore failure refused: %v", err)
	}
}

// TestSaveLoadTreeProperty is the snapshot-equivalence property test: a
// tree-mode session's noise-free internals — budget books (scalar and,
// under Gaussian accounting, curve), cache contents, warm node state — are
// identical before SaveState and after LoadState, the restored session's
// answer counters start at 0, and both sessions answer the full asked-so-far workload
// identically (free exact hits) afterwards. It runs under both accounting
// modes, with Config.Shards at 1 and at 4 (a field the session ignores;
// benchmark/ sets it to the CPU count), and once through a snapshot file.
func TestSaveLoadTreeProperty(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     Mode
		gaussian bool
		shards   int
		file     bool
	}{
		{"pure-partitioned-shards1", Partitioned, false, 1, false},
		{"pure-partitioned-shards4", Partitioned, false, 4, false},
		{"gaussian-streaming-shards1", Streaming, true, 1, false},
		{"gaussian-streaming-shards4", Streaming, true, 4, false},
		{"pure-partitioned-shards4-file", Partitioned, false, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dom, ds := buildDS(t, 4)
			cfg := defaultCfg(tc.mode)
			cfg.Gaussian = tc.gaussian
			cfg.Shards = tc.shards
			if tc.gaussian {
				cfg.DeltaGlobal = 1e-6
			}
			s1, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}

			// Seeded pseudo-random workload over random windows, with a
			// mid-stream append, repeats included (so dedup/exact paths
			// engage).
			rng := rand.New(rand.NewSource(7))
			var asked []*query.Query
			for i := 0; i < 60; i++ {
				if i == 30 {
					appendWeek(t, s1)
				}
				var q *query.Query
				if len(asked) > 0 && rng.Intn(3) == 0 {
					q = asked[rng.Intn(len(asked))] // repeat
				} else {
					parts := ds.Partitions()
					s := rng.Intn(parts)
					e := s + rng.Intn(parts-s)
					q = query.MustNew(dom, map[int][]int{0: {rng.Intn(2)}, 1: {rng.Intn(4)}}).WithWindow(s, e)
				}
				asked = append(asked, q)
				if _, err := s1.Answer(q); err != nil {
					t.Fatal(err)
				}
			}

			s2, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s1.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			snap := buf.Bytes()
			if tc.file {
				path := filepath.Join(t.TempDir(), "state.snap")
				if err := persist.WriteFileAtomic(path, func(w io.Writer) error {
					_, err := w.Write(snap)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if err := s2.LoadState(f); err != nil {
					t.Fatal(err)
				}
			} else if err := s2.LoadState(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}

			// Noise-free internals agree exactly.
			if tc.gaussian {
				requireEqualRDP(t, s1, s2)
			}
			v1, v2 := s1.Accountant().SpentVector(), s2.Accountant().SpentVector()
			if len(v1) != len(v2) {
				t.Fatalf("books cover %d and %d partitions", len(v1), len(v2))
			}
			for p := range v1 {
				if v1[p] != v2[p] {
					t.Fatalf("partition %d scalar spend %g != %g", p, v2[p], v1[p])
				}
			}
			// Counters are not restored: each process counts its own.
			if s2.Queries() != 0 || s2.Deduped() != 0 || len(s2.SourceCounts()) != 0 {
				t.Fatalf("restored counters %d/%d %v, want none", s2.Queries(), s2.Deduped(), s2.SourceCounts())
			}
			if s2.Tree().Nodes() != s1.Tree().Nodes() {
				t.Fatalf("restored %d nodes, want %d", s2.Tree().Nodes(), s1.Tree().Nodes())
			}
			if s2.StoreStats().Entries != s1.StoreStats().Entries {
				t.Fatalf("restored cache %d entries, want %d", s2.StoreStats().Entries, s1.StoreStats().Entries)
			}

			// Every asked query now answers identically on both sessions,
			// for free: the exact caches carry the released answers.
			spent1, spent2 := s1.AverageSpent(), s2.AverageSpent()
			if spent1 == 0 {
				t.Fatal("workload spent nothing: the replay check would be vacuous")
			}
			for _, q := range asked {
				a1, err1 := s1.Answer(q)
				a2, err2 := s2.Answer(q)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if a1.Value != a2.Value {
					t.Fatalf("replay %v: %g != %g", q, a2.Value, a1.Value)
				}
				if a1.Source != SourceExactHit || a2.Source != SourceExactHit {
					t.Fatalf("replay %v: sources %s/%s, want exact hits", q, a1.Source, a2.Source)
				}
			}
			if s1.AverageSpent() != spent1 || s2.AverageSpent() != spent2 {
				t.Fatal("replay consumed budget")
			}
		})
	}
}

// TestSnapshotBytesDeterministic pins the property the snapshotdet
// analyzer guards line by line: a quiesced session captures to the same
// bytes every time, with the tree and the exact cache both populated
// (each is a Go map somewhere underneath). The capture is a v8 envelope
// whose cache section holds one key and float64 per cached release.
func TestSnapshotBytesDeterministic(t *testing.T) {
	dom, ds := buildDS(t, 8)
	cfg := defaultCfg(Partitioned)
	s, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < 8; start++ {
		for end := start; end < 8; end++ {
			for a := 0; a < 4; a++ {
				q := query.MustNew(dom, map[int][]int{0: {1}, 1: {a}}).WithWindow(start, end)
				if _, err := s.Answer(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if s.StoreStats().Entries < 100 || s.Tree().Nodes() < 8 {
		t.Fatalf("session under-populated: %d exact entries, %d nodes",
			s.StoreStats().Entries, s.Tree().Nodes())
	}
	var first bytes.Buffer
	if err := s.SaveState(&first); err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint32(first.Bytes()[8:12]); v != 8 {
		t.Fatalf("captured a v%d envelope, want v8", v)
	}
	payloads, err := persist.ReadSections(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if parts := datasetSectionCounts(t, payloads["dataset/partitions"], dom.Size()); len(parts) != ds.Partitions() {
		t.Fatalf("dataset section holds %d partitions, the dataset %d", len(parts), ds.Partitions())
	}
	sec := decodeCacheSection(t, payloads["cache/session-exact"])
	if len(sec.Keys) != s.StoreStats().Entries {
		t.Fatalf("cache section holds %d entries, the store %d", len(sec.Keys), s.StoreStats().Entries)
	}
	for i, v := range sec.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("entry %q holds %v, not a release", sec.Keys[i], v)
		}
	}
	// Map iteration order is drawn per range statement, so a few more
	// captures make an unsorted walk over a small map all but sure to differ.
	for i := 0; i < 4; i++ {
		var again bytes.Buffer
		if err := s.SaveState(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("capture %d of the same quiesced session differs (%d vs %d bytes)", i+2, again.Len(), first.Len())
		}
	}
}

// TestFreshBooksStartWithEmptyCaches pins that a release is never servable
// on books that do not hold its charge: NewSession builds a zeroed
// accountant, so whatever its backend already caches — another session's
// fills in a shared store.Mem — was paid for elsewhere and must not be
// served as a free exact hit.
func TestFreshBooksStartWithEmptyCaches(t *testing.T) {
	mem := store.NewMem(store.MemConfig{})
	for _, tc := range []struct {
		name string
		open func(t *testing.T) store.Backend
	}{
		{"mem", func(*testing.T) store.Backend { return mem }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dom, ds := buildDS(t, 8)
			q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 5)
			cfg := defaultCfg(Partitioned)
			cfg.Backend = tc.open(t)
			a, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			if ans, err := a.Answer(q); err != nil || ans.Paid <= 0 {
				t.Fatalf("session A: %+v, %v; want a paid answer", ans, err)
			}
			if ans, err := a.Answer(q); err != nil || ans.Source != SourceExactHit {
				t.Fatalf("session A repeat: %+v, %v; want its own exact hit", ans, err)
			}

			cfg.Backend = tc.open(t)
			b, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := b.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Source == SourceExactHit || ans.Paid <= 0 || b.AverageSpent() <= 0 {
				t.Fatalf("session B served %+v with average spend %g: a release its books never charged",
					ans, b.AverageSpent())
			}
		})
	}
}

// poisonLast rewrites a section's payload with its last element broken:
// the last configuration field, partition count, source counter, ledger
// value, cache entry, PMW threshold list or tree node. With alt, the
// block's ledger instead covers one partition more than the snapshot's
// dataset, and the meta section's query count is negative.
func poisonLast(t *testing.T, section string, p []byte, alt bool) []byte {
	t.Helper()
	d := persist.NewDecoder(p)
	var e persist.Encoder
	switch section {
	case "core/identity":
		e.PutInt(d.Int())
		e.PutBool(d.Bool())
		for range 5 {
			e.PutFloat(d.Float())
		}
		e.PutInt(d.Int() + 1) // another tree structure
	case "dataset/partitions":
		n := d.Count(1)
		e.PutUvarint(uint64(n))
		for i := range n * 8 { // buildDS's 8 bins per partition
			c := d.Uvarint()
			if i == n*8-1 {
				c = dataset.MaxRows + 1 // past what a dataset holds
			}
			e.PutUvarint(c)
		}
	case "accountant/block":
		e.PutFloat(d.Float())
		e.PutFloat(d.Float())
		orders := d.Floats()
		e.PutFloats(orders)
		spent := d.Floats()
		if alt {
			spent = append(spent, make([]float64, max(1, len(orders)))...)
		} else {
			spent[len(spent)-1] = -1
		}
		e.PutFloats(spent)
	case "cache/session-exact":
		n := d.Count(9)
		e.PutUvarint(uint64(n))
		for i := range n {
			e.PutBytes(d.Bytes())
			v := d.Float()
			if i == n-1 {
				v = math.Inf(1) // not a release
			}
			e.PutFloat(v)
		}
	case "pmw/single":
		e.PutFloats(d.Floats())
		e.PutFloats(d.Floats())
		updates := d.Int()
		if alt {
			updates = -1
		}
		e.PutInt(updates)
		th := d.Floats()
		if !alt {
			th = []float64{1, 1, 1} // 3 thresholds over 8 bins
		}
		e.PutFloats(th)
	case "tree/nodes":
		n := d.Count(6)
		e.PutUvarint(uint64(n))
		for i := range n {
			e.PutInt(d.Int())
			e.PutInt(d.Int())
			e.PutFloats(d.Floats())
			counts := d.Floats()
			if i == n-1 && alt {
				counts[len(counts)-1] = -1 // a counter below zero
			}
			e.PutFloats(counts)
			e.PutInt(d.Int())
			th := d.Floats()
			if i == n-1 && !alt {
				th = []float64{0.5} // one threshold over 8 bins
			}
			e.PutFloats(th)
		}
	default:
		t.Fatalf("no poison for section %q", section)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("%s: %v", section, err)
	}
	return e.Payload()
}

// TestRefusedSectionChangesNothing: every section, poisoned in its last
// element, is refused by a SectionError naming it, and the target is left
// as it was (loadAllOrNothing) and answers a miss. Sections that once
// checked only as they restored are among them: a tree/nodes section
// whose last node has one threshold was refused after the books had
// moved, and a pmw/single section with 3 thresholds over 8 bins was
// accepted, its next miss a panic. So were a tree/nodes section whose last
// node holds a negative update counter and a pmw/single section with a
// negative update count. The streaming source has appended a
// partition, so its dataset section grows the target and the block's
// ledger must cover exactly the grown count.
func TestRefusedSectionChangesNothing(t *testing.T) {
	ops := []byte{0x05, 0x46, 0x8b, 0xcd, 0x13, 0xfe, 0x05, 0x46, 0x21, 0x9c}
	const nonPartitioned, streamingGrown = 0, 11
	for _, tc := range []struct {
		section string
		shape   byte
		alt     bool
	}{
		{"core/identity", streamingGrown, false},
		{"dataset/partitions", streamingGrown, false},
		{"accountant/block", streamingGrown, false},
		{"accountant/block", streamingGrown, true},
		{"cache/session-exact", streamingGrown, false},
		{"pmw/single", nonPartitioned, false},
		{"pmw/single", nonPartitioned, true},
		{"tree/nodes", streamingGrown, false},
		{"tree/nodes", streamingGrown, true},
	} {
		cfg, src := fuzzSession(t, tc.shape, ops)
		var snap bytes.Buffer
		if err := src.SaveState(&snap); err != nil {
			t.Fatal(err)
		}
		bad := rewriteSections(t, snap.Bytes(), func(name string, p []byte) []byte {
			if name == tc.section {
				return poisonLast(t, name, p, tc.alt)
			}
			return p
		})
		dst, err := restoreInto(t, cfg, bad)
		if refusingSection(err) != tc.section {
			t.Fatalf("%s (alt %t) poisoned: err = %v, want its SectionError", tc.section, tc.alt, err)
		}
		q := query.MustNew(dst.Dataset().Domain(), map[int][]int{0: {1}, 1: {2}})
		if cfg.Mode != NonPartitioned {
			q = q.WithWindow(0, 1)
		}
		if _, err := dst.Answer(q); err != nil {
			t.Fatalf("%s: a miss after the refusal: %v", tc.section, err)
		}
		if _, err := restoreInto(t, cfg, snap.Bytes()); err != nil {
			t.Fatalf("%s: the intact snapshot: %v", tc.section, err)
		}
	}
}
