package core

// One set of privacy books, at the session: every mode × accounting
// combination pays the same block, a refused payment leaves it
// untouched, a restore brings it back whole with nothing to re-admit —
// from today's snapshots and from the two-book snapshots older builds
// wrote.

import (
	"bytes"
	"errors"
	"fmt"
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
			if err := ds.AddCount(p, bin, 8+(bin+p)%5); err != nil {
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
		if max := restored.MaxSpent(); max > cfg.EpsilonGlobal+1e-9 || max < cfg.EpsilonGlobal/2 {
			t.Fatalf("exhausted at a max spend of %g under ε_G = %g", max, cfg.EpsilonGlobal)
		}
	})
}

// The accountant sections of older builds, in their old struct shapes.
type (
	legacyBlockState struct {
		Global float64
		Spent  []float64
	}
	legacyRDPBlockState struct {
		Orders   []float64
		EpsG     float64
		DeltaG   float64
		Spent    [][]float64
		Mirrored []float64
	}
)

// legacySnapshot rewrites a snapshot of s the way an older build would
// have written it: the scalar per-partition book under accountant/block
// and, for a Gaussian session, the curves under accountant/rdp — the
// scalar book then being the mirror of their converted spend. mutate, if
// any, edits the two payloads first.
func legacySnapshot(t *testing.T, s *Session, mutate func(*legacyBlockState, *legacyRDPBlockState)) []byte {
	t.Helper()
	var raw bytes.Buffer
	if err := s.SaveState(&raw); err != nil {
		t.Fatal(err)
	}
	payloads, order, err := persist.ReadSections(&raw)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Accountant()
	scalar := legacyBlockState{Global: b.Global(), Spent: b.SpentVector()}
	rdp := legacyRDPBlockState{Orders: b.Orders(), EpsG: b.Global(), DeltaG: b.Delta(), Mirrored: b.SpentVector()}
	for p := 0; p < b.Partitions(); p++ {
		rdp.Spent = append(rdp.Spent, b.CurveAt(p))
	}
	if mutate != nil {
		mutate(&scalar, &rdp)
	}
	var out bytes.Buffer
	w, err := persist.NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		p := payloads[name]
		if name == accountant.SectionBlock {
			if p, err = persist.Encode(scalar); err != nil {
				t.Fatal(err)
			}
			if b.Orders() != nil {
				curves, err := persist.Encode(rdp)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.WriteSection("accountant/rdp", curves); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.WriteSection(name, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLegacySnapshotsLoad restores two-book snapshots into today's
// sessions: the books come back bit for bit — never with less spend —
// and the restored session refuses at the same query as the session that
// was never restored.
func TestLegacySnapshotsLoad(t *testing.T) {
	forEachBooks(t, func(t *testing.T, mode Mode, gaussian bool) {
		cfg, ds, mkQuery := booksFixture(t, mode, gaussian)
		twin, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		const half, total = 12, 600
		for i := 0; i < half; i++ {
			if _, err := twin.Answer(mkQuery(i)); err != nil {
				t.Fatal(err)
			}
		}
		restored, err := NewSession(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadState(bytes.NewReader(legacySnapshot(t, twin, nil))); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < ds.Partitions(); p++ {
			c1, c2 := twin.Accountant().CurveAt(p), restored.Accountant().CurveAt(p)
			for j := range c1 {
				if c1[j] != c2[j] {
					t.Fatalf("partition %d order %d: restored %v, saved %v", p, j, c2[j], c1[j])
				}
			}
		}
		if _, refused := runTwins(t, twin, restored, mkQuery, half, total); refused == 0 {
			t.Fatal("the stream never reached a refusal")
		}
	})
}

// TestLegacyGaussianSnapshotRefusedUntouched: a two-book Gaussian
// snapshot the session's books can never accept is refused before any
// section restores — the session is not poisoned and keeps serving.
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
	for name, mutate := range map[string]func(*legacyBlockState, *legacyRDPBlockState){
		"grid values": func(_ *legacyBlockState, r *legacyRDPBlockState) {
			r.Orders = append([]float64(nil), r.Orders...)
			r.Orders[3] += 0.5
		},
		"grid length": func(_ *legacyBlockState, r *legacyRDPBlockState) {
			r.Orders = r.Orders[:len(r.Orders)-1]
			for p := range r.Spent {
				r.Spent[p] = r.Spent[p][:len(r.Orders)]
			}
		},
		"ε_G":                      func(_ *legacyBlockState, r *legacyRDPBlockState) { r.EpsG *= 2 },
		"δ_G":                      func(_ *legacyBlockState, r *legacyRDPBlockState) { r.DeltaG = 1e-7 },
		"fewer curves than mirror": func(_ *legacyBlockState, r *legacyRDPBlockState) { r.Spent = r.Spent[:len(r.Spent)-1] },
		"fewer partitions than the session": func(m *legacyBlockState, r *legacyRDPBlockState) {
			m.Spent, r.Spent = m.Spent[:len(m.Spent)-1], r.Spent[:len(r.Spent)-1]
		},
		"mirror above the converted curves": func(m *legacyBlockState, _ *legacyRDPBlockState) { m.Spent[1] += 0.01 },
		"negative curve value":              func(_ *legacyBlockState, r *legacyRDPBlockState) { r.Spent[0][2] = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			dst, err := NewSession(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			err = dst.LoadState(bytes.NewReader(legacySnapshot(t, src, mutate)))
			var se *persist.SectionError
			if !errors.As(err, &se) || se.Section != accountant.SectionBlock {
				t.Fatalf("err = %v, want an accountant/block refusal", err)
			}
			if errors.Is(err, ErrStateCorrupt) || dst.MaxSpent() != 0 || dst.Queries() != 0 {
				t.Fatalf("refusal mutated the session: err=%v spent=%v queries=%d", err, dst.MaxSpent(), dst.Queries())
			}
			if _, err := dst.Answer(mkQuery(0)); err != nil {
				t.Fatalf("session unusable after the refusal: %v", err)
			}
		})
	}
}
