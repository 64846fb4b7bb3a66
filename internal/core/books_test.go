package core

// One set of privacy books, at the session: every mode × accounting
// combination pays the same block, a refused payment leaves it
// untouched, a restore brings it back whole with nothing to re-admit, and
// the snapshots older builds wrote — or a block section the books can
// never accept — are refused before anything moves.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/heuristic"
	"repro/internal/persist"
	"repro/internal/pmw"
	"repro/internal/query"
)

// booksFixture is a small dataset (large per-query ε, so a modest ε_G
// binds within a short stream) over a domain with thousands of distinct
// predicates, and a session config whose heuristic is never ready: every
// query takes the bypass branch and makes exactly one payment, so two
// sessions fed the same stream make the same payments whatever their
// noise.
func booksFixture(t *testing.T, mode Mode, gaussian bool) (Config, *dataset.Dataset, func(i int) *query.Query) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 4},
		domain.Attribute{Name: "c", Card: 4},
	)
	const parts = 4
	ds := dataset.New(dom, parts)
	for p := 0; p < parts; p++ {
		for bin := 0; bin < dom.Size(); bin++ {
			if err := addCount(ds, p, bin, 8+(bin+p)%5); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := Config{
		Mode: mode, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 2, Tau: 0.25, Seed: 5,
		LR:        func() pmw.Schedule { return pmw.Constant(0.2) },
		Heuristic: func() heuristic.Heuristic { return heuristic.NewAdaptivePerBin(1e9, 1) },
	}
	if mode == NonPartitioned {
		cfg.EpsilonGlobal = 8 // every query pays all four partitions
	}
	if gaussian {
		cfg.Gaussian, cfg.DeltaGlobal = true, 1e-6
	}
	// Single-node windows of the binary tree: one payment per query, so a
	// refused query is a refused payment.
	windows := [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {0, 1}, {2, 3}, {0, 3}}
	subset := func(mask int) []int {
		var vs []int
		for v := 0; v < 4; v++ {
			if mask&(1<<v) != 0 {
				vs = append(vs, v)
			}
		}
		return vs
	}
	mkQuery := func(i int) *query.Query {
		q := query.MustNew(dom, map[int][]int{0: subset(1 + i%15), 1: subset(1 + (i/15)%15), 2: subset(1 + (i/225)%15)})
		if mode == NonPartitioned {
			return q
		}
		w := windows[i%len(windows)]
		return q.WithWindow(w[0], w[1])
	}
	return cfg, ds, mkQuery
}

// answerUnchangedOnRefusal answers q and, on a budget refusal, requires
// the books bit-identical to before it.
func answerUnchangedOnRefusal(t *testing.T, s *Session, q *query.Query) error {
	t.Helper()
	before := s.Accountant().SpentVector()
	_, err := s.Answer(q)
	if err == nil {
		return nil
	}
	if !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("answer: %v", err)
	}
	for p, v := range s.Accountant().SpentVector() {
		if v != before[p] {
			t.Fatalf("refused payment moved partition %d from %v to %v", p, before[p], v)
		}
	}
	return err
}

// runTwins feeds queries from..to to a never-restored session and a
// restored one, requiring the same verdict and bit-identical books after
// every query, and returns how many were accepted and refused.
func runTwins(t *testing.T, twin, restored *Session, mkQuery func(int) *query.Query, from, to int) (accepted, refused int) {
	t.Helper()
	for i := from; i < to; i++ {
		e1 := answerUnchangedOnRefusal(t, twin, mkQuery(i))
		e2 := answerUnchangedOnRefusal(t, restored, mkQuery(i))
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("query %d: never-restored twin %v, restored session %v", i, e1, e2)
		}
		if e1 == nil {
			accepted++
		} else {
			refused++
		}
		v1, v2 := twin.Accountant().SpentVector(), restored.Accountant().SpentVector()
		for p := range v1 {
			if v1[p] != v2[p] {
				t.Fatalf("query %d: partition %d twin spent %v, restored %v", i, p, v1[p], v2[p])
			}
		}
	}
	return accepted, refused
}

func forEachBooks(t *testing.T, fn func(t *testing.T, mode Mode, gaussian bool)) {
	for _, mode := range []Mode{NonPartitioned, Partitioned, Streaming} {
		for _, gaussian := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/gaussian=%v", mode, gaussian), func(t *testing.T) { fn(t, mode, gaussian) })
		}
	}
}

// TestRefusalLeavesBooksAndRestoreNeedsNoReadmission is the test the two
// sets of books made unwritable: whatever the mode and accounting, a
// refused payment changes nothing, and a save → load → pay-to-exhaustion
// run makes and refuses exactly the payments of its never-restored twin.
func TestRefusalLeavesBooksAndRestoreNeedsNoReadmission(t *testing.T) {
	forEachBooks(t, func(t *testing.T, mode Mode, gaussian bool) {
		cfg, ds, mkQuery := booksFixture(t, mode, gaussian)
		twin, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		const half, total = 12, 600
		for i := 0; i < half; i++ {
			if err := answerUnchangedOnRefusal(t, twin, mkQuery(i)); err != nil {
				t.Fatalf("query %d refused before the snapshot: raise ε_G (%v)", i, err)
			}
		}
		var buf bytes.Buffer
		if err := twin.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadState(&buf); err != nil {
			t.Fatal(err)
		}
		if n := restored.AdmissionLockAcquisitions(); n != 0 {
			t.Fatalf("restore touched the accountant's admission path %d times", n)
		}
		accepted, refused := runTwins(t, twin, restored, mkQuery, half, total)
		if accepted == 0 || refused == 0 {
			t.Fatalf("after the restore %d accepted, %d refused: the stream must cross exhaustion", accepted, refused)
		}
		if max := restored.Accountant().MaxSpent(); max > cfg.EpsilonGlobal+1e-9 || max < cfg.EpsilonGlobal/2 {
			t.Fatalf("exhausted at a max spend of %g under ε_G = %g", max, cfg.EpsilonGlobal)
		}
	})
}

// legacyEnvelope is s's snapshot under an older build's header: the magic,
// the format version given, then gzip bytes.
func legacyEnvelope(t *testing.T, s *Session, version uint32) []byte {
	t.Helper()
	var raw bytes.Buffer
	if err := s.SaveState(&raw); err != nil {
		t.Fatal(err)
	}
	out := raw.Bytes()
	binary.BigEndian.PutUint32(out[8:12], version)
	return out
}

// TestLegacySnapshotsLoad loads the v2 snapshots older builds wrote into
// today's sessions: each is refused with ErrBadVersion naming v2 and v8,
// before any section restores — the books, counters and caches stay those
// of a fresh session, which then makes and refuses exactly the payments of
// one that never saw the file.
func TestLegacySnapshotsLoad(t *testing.T) {
	forEachBooks(t, func(t *testing.T, mode Mode, gaussian bool) {
		cfg, ds, mkQuery := booksFixture(t, mode, gaussian)
		src, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		const half, total = 12, 600
		for i := 0; i < half; i++ {
			if _, err := src.Answer(mkQuery(i)); err != nil {
				t.Fatal(err)
			}
		}
		restored, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		err = restored.LoadState(bytes.NewReader(legacyEnvelope(t, src, 2)))
		if !errors.Is(err, persist.ErrBadVersion) ||
			!strings.Contains(err.Error(), "snapshot is v2, this build reads v8") {
			t.Fatalf("err = %v, want an ErrBadVersion refusal naming v2 and v8", err)
		}
		if restored.Accountant().MaxSpent() != 0 || restored.Queries() != 0 || restored.StoreStats().Entries != 0 {
			t.Fatalf("the refusal moved state: spent %v, %d queries, %d cached",
				restored.Accountant().MaxSpent(), restored.Queries(), restored.StoreStats().Entries)
		}
		fresh, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if _, refused := runTwins(t, fresh, restored, mkQuery, 0, total); refused == 0 {
			t.Fatal("the stream never reached a refusal")
		}
	})
}

// blockEdit rewrites the accountant/block section of a snapshot of s:
// edit gets the decoded ε_G, δ_G, order grid and flat ledger and returns
// them changed.
func blockEdit(t *testing.T, s *Session, edit func(epsG, deltaG *float64, orders, spent *[]float64)) []byte {
	t.Helper()
	var raw bytes.Buffer
	if err := s.SaveState(&raw); err != nil {
		t.Fatal(err)
	}
	return rewriteSections(t, raw.Bytes(), func(name string, p []byte) []byte {
		if name != accountant.SectionBlock {
			return p
		}
		d := persist.NewDecoder(p)
		epsG, deltaG, orders, spent := d.Float(), d.Float(), d.Floats(), d.Floats()
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		edit(&epsG, &deltaG, &orders, &spent)
		var e persist.Encoder
		e.PutFloat(epsG)
		e.PutFloat(deltaG)
		e.PutFloats(orders)
		e.PutFloats(spent)
		return e.Payload()
	})
}

// TestLegacyGaussianSnapshotRefusedUntouched: a Gaussian snapshot the
// session's books can never accept is refused before any section restores
// — a v2 file at its header; a v8 one whose block section carries one of
// the defects the two-book era's cross-check caught, by the block's
// stage — and the session keeps serving.
func TestLegacyGaussianSnapshotRefusedUntouched(t *testing.T) {
	cfg, ds, mkQuery := booksFixture(t, Partitioned, true)
	src, err := NewSession(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := src.Answer(mkQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	k := len(src.Accountant().Orders())
	for name, edit := range map[string]func(epsG, deltaG *float64, orders, spent *[]float64){
		"grid values": func(_, _ *float64, orders, _ *[]float64) {
			*orders = append([]float64(nil), *orders...)
			(*orders)[3] += 0.5
		},
		"grid length": func(_, _ *float64, orders, spent *[]float64) {
			var cut []float64
			for p := 0; p < len(*spent)/k; p++ {
				cut = append(cut, (*spent)[p*k:(p+1)*k-1]...)
			}
			*orders, *spent = (*orders)[:k-1], cut
		},
		"ε_G": func(epsG, _ *float64, _, _ *[]float64) { *epsG *= 2 },
		"δ_G": func(_, deltaG *float64, _, _ *[]float64) { *deltaG = 1e-7 },
		"fewer partitions than the session": func(_, _ *float64, _, spent *[]float64) {
			*spent = (*spent)[:len(*spent)-k]
		},
		"negative curve value": func(_, _ *float64, _, spent *[]float64) { (*spent)[2] = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			for version, snap := range map[string][]byte{"v2": legacyEnvelope(t, src, 2), "v8": blockEdit(t, src, edit)} {
				dst, err := NewSession(cfg, ds)
				if err != nil {
					t.Fatal(err)
				}
				err = dst.LoadState(bytes.NewReader(snap))
				var se *persist.SectionError
				if version == "v2" && !errors.Is(err, persist.ErrBadVersion) ||
					version == "v8" && (!errors.As(err, &se) || se.Section != accountant.SectionBlock) {
					t.Fatalf("%s: err = %v, want the refusal of a %s snapshot", version, err, version)
				}
				if dst.Accountant().MaxSpent() != 0 || dst.Queries() != 0 {
					t.Fatalf("%s: refusal mutated the session: err=%v spent=%v queries=%d", version, err, dst.Accountant().MaxSpent(), dst.Queries())
				}
				if _, err := dst.Answer(mkQuery(0)); err != nil {
					t.Fatalf("%s: session unusable after the refusal: %v", version, err)
				}
			}
		})
	}
}
