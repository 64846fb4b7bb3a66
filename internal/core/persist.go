// Session persistence: the prototype keeps all caching state in Redis
// (§5); here a session serializes that state — exact caches, PMW/tree
// histograms, heuristic thresholds, and the accountant — through the
// internal/persist envelope (versioned, section-tagged), with the dataset
// itself, and a fresh session over a prefix of that dataset restores it.
// SaveState/LoadState are thin orchestrators: every stateful layer
// registers itself as a persist.Snapshotter section (see buildRegistry),
// and the registry does the rest.
//
// Gaussian/Rényi sessions round-trip like pure-ε ones: the accountant
// section carries the whole per-partition, per-order ledger, so a
// restored session sees the exact composed history and needs no step to
// bring anything else back in line with it.
//
// Sparse-vector state is intentionally not persisted: a restored session
// re-initializes SVs on first use (one init payment per SV), which is
// always safe. A restore runs once, before the session serves: the
// session's restore window closes at its first Lookup, AnswerPlan or
// AppendPartitions and at a successful LoadState, and LoadState refuses
// once it has closed (ErrAlreadyServing).

package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/persist"
	"repro/internal/tree"
)

// ErrAlreadyServing reports a LoadState after the session's restore
// window closed: it began serving, or an earlier restore succeeded.
var ErrAlreadyServing = errors.New("core: restore after the session began serving")

// SaveState serializes the session's caching and accounting state as a
// persist envelope: one section per registered layer, under appendMu, so
// no arrival or restore is mid-application for the duration. The image is
// fully consistent when no queries are in flight; concurrent answers at
// worst skew late sections the way any external observer could (and only
// in the conservative direction — see persist.Registry.Capture). A
// capture does not close the restore window.
func (s *Session) SaveState(w io.Writer) error {
	// Hold the arrival mutex for the whole capture: an AppendPartitions
	// racing it would otherwise leave the snapshot's accountant and
	// dataset sections disagreeing on the partition count — a checkpoint
	// that reports success but can never restore — or capture a
	// partition grown but not yet loaded or warm-started.
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if err := s.registry.Capture(w); err != nil {
		return fmt.Errorf("core: save state: %w", err)
	}
	return nil
}

// LoadState restores previously saved state into a freshly-created
// session with the same configuration over a prefix of the snapshot's
// dataset: the snapshot's first partitions must be the session's, bin for
// bin, and the rest are appended (datasetSection). It runs once, before
// the session serves: once the restore window has closed it refuses with
// ErrAlreadyServing, and a request that arrives while it runs waits for
// it (appendMu). Envelope and section failures surface as typed errors
// (persist.ErrBadMagic, persist.ErrTruncated, *persist.SectionError
// naming the offending section, ...). Every section stages before any
// applies, so a refused load leaves the session as it was, its window
// open; a successful one closes it.
func (s *Session) LoadState(r io.Reader) error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if s.serving.Load() {
		return ErrAlreadyServing
	}
	if err := s.registry.Load(r); err != nil {
		return fmt.Errorf("core: load state: %w", err)
	}
	s.serving.Store(true)
	return nil
}

// datasetSection adapts the dataset into a persist.Snapshotter. Its
// "dataset/partitions" payload is the partition count, then each
// partition's per-bin counts as uvarints, dom.Size() of them. The rows
// are the counts' sums, so the section carries nothing else.
type datasetSection struct{ s *Session }

// SnapshotSection implements persist.Snapshotter.
func (d datasetSection) SnapshotSection() string { return "dataset/partitions" }

// SnapshotPayload writes every partition's counts.
func (d datasetSection) SnapshotPayload() []byte {
	ds := d.s.ds
	var e persist.Encoder
	e.PutUvarint(uint64(ds.Partitions()))
	for p := range ds.Partitions() {
		for _, c := range ds.PartitionCounts(p) {
			e.PutUvarint(uint64(c))
		}
	}
	return e.Payload()
}

// StagePayload implements persist.Snapshotter: a restore only grows the
// dataset. The snapshot's first partitions must be the session's own, bin
// for bin — a served partition never changes, so another count is
// another dataset, on which the snapshot's releases would be stale — and
// the rest are checked as the Append the apply makes (CheckAppend), which
// no writer can race: LoadState holds appendMu. The block
// stages next, and its ledger must cover every partition the restore
// leaves (ExpectPartitions).
func (d datasetSection) StagePayload(payload []byte) (func(), error) {
	s := d.s
	bins := s.ds.Domain().Size()
	dec := persist.NewDecoder(payload)
	parts := make([][]int, dec.Count(bins))
	for p := range parts {
		parts[p] = make([]int, bins)
		for b := range parts[p] {
			c := dec.Uvarint()
			if c > dataset.MaxRows {
				return nil, fmt.Errorf("core: snapshot's partition %d has count %d at bin %d, past %d rows",
					p, c, b, dataset.MaxRows)
			}
			parts[p][b] = int(c)
		}
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	have := s.ds.Partitions()
	if len(parts) < have {
		return nil, fmt.Errorf("core: snapshot dataset has %d partitions, session already has %d", len(parts), have)
	}
	for p := range have {
		own := s.ds.PartitionCounts(p)
		for b, c := range parts[p] {
			if c != own[b] {
				return nil, fmt.Errorf("core: snapshot's partition %d holds %d rows at bin %d, the session's %d — cached results would be stale",
					p, c, b, own[b])
			}
		}
	}
	suffix := parts[have:]
	if len(suffix) > 0 && s.tree == nil {
		return nil, errors.New("core: snapshot dataset grew beyond the non-partitioned session's fixed range")
	}
	if err := s.ds.CheckAppend(suffix...); err != nil {
		return nil, err
	}
	s.block.ExpectPartitions(len(parts))
	return func() {
		_, _ = s.ds.Append(nil, suffix...) // its refusals are CheckAppend's, passed above
	}, nil
}

// buildRegistry assembles the session's snapshot sections in stage and
// apply order: identity first (validation-only, so its refusal names the
// configuration field that differs), then the dataset and the
// accountant, whose ledger must cover the partitions the dataset's stage
// leaves, then caches and histogram machinery. Every
// section stages before any applies, so a snapshot whose configuration,
// data, accounting, caches or histograms this session can never accept
// is a refusal that leaves the session as it was.
func (s *Session) buildRegistry() {
	s.registry = persist.NewRegistry()
	s.registry.Register(identitySection{s})
	s.registry.Register(datasetSection{s})
	s.registry.Register(s.block)
	s.registry.Register(s.exact)
	if s.single != nil {
		s.registry.Register(singleSection{s})
	}
	if s.tree != nil {
		s.registry.Register(s.tree)
	}
}

// sessionIdentity is the "core/identity" section payload: the
// configuration a snapshot was taken under, laid out field by field in
// declaration order. Its stage is pure validation, and its apply does
// nothing.
type sessionIdentity struct {
	Mode          Mode
	Gaussian      bool
	EpsilonGlobal float64
	DeltaGlobal   float64
	// Alpha/Beta/Tau are part of the identity because restored caches
	// and histograms were trained under them: serving a cached answer
	// produced at a looser accuracy target would silently violate the
	// new session's (α, β) guarantee.
	Alpha, Beta, Tau float64
	// Structure shapes the tree's node intervals; restoring Flat nodes
	// into a Binary tree (or vice versa) would mix decompositions.
	Structure tree.Structure
}

// identitySection adapts the session's configuration identity into a
// persist.Snapshotter.
type identitySection struct{ s *Session }

// SnapshotSection implements persist.Snapshotter.
func (m identitySection) SnapshotSection() string { return "core/identity" }

// SnapshotPayload captures the configuration identity.
func (m identitySection) SnapshotPayload() []byte {
	cfg := m.s.cfg
	var e persist.Encoder
	e.PutInt(int(cfg.Mode))
	e.PutBool(cfg.Gaussian)
	e.PutFloat(cfg.EpsilonGlobal)
	e.PutFloat(cfg.DeltaGlobal)
	e.PutFloat(cfg.Alpha)
	e.PutFloat(cfg.Beta)
	e.PutFloat(cfg.Tau)
	e.PutInt(int(cfg.Structure))
	return e.Payload()
}

// StagePayload implements persist.Snapshotter: it validates — and only
// validates — the configuration.
func (m identitySection) StagePayload(payload []byte) (func(), error) {
	if err := m.check(payload); err != nil {
		return nil, err
	}
	return func() {}, nil
}

// check compares the snapshot's configuration with the session's.
func (m identitySection) check(payload []byte) error {
	s := m.s
	d := persist.NewDecoder(payload)
	st := sessionIdentity{
		Mode: Mode(d.Int()), Gaussian: d.Bool(),
		EpsilonGlobal: d.Float(), DeltaGlobal: d.Float(),
		Alpha: d.Float(), Beta: d.Float(), Tau: d.Float(),
		Structure: tree.Structure(d.Int()),
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if st.Mode != s.cfg.Mode {
		return fmt.Errorf("core: snapshot mode %v != session mode %v", st.Mode, s.cfg.Mode)
	}
	if st.Gaussian != s.cfg.Gaussian {
		return fmt.Errorf("core: snapshot accounting (gaussian=%t) != session accounting (gaussian=%t)",
			st.Gaussian, s.cfg.Gaussian)
	}
	if st.EpsilonGlobal != s.cfg.EpsilonGlobal {
		return fmt.Errorf("core: snapshot ε_G %g != session ε_G %g", st.EpsilonGlobal, s.cfg.EpsilonGlobal)
	}
	if st.Gaussian && st.DeltaGlobal != s.cfg.DeltaGlobal {
		return fmt.Errorf("core: snapshot δ_G %g != session δ_G %g", st.DeltaGlobal, s.cfg.DeltaGlobal)
	}
	if st.Alpha != s.cfg.Alpha || st.Beta != s.cfg.Beta {
		return fmt.Errorf("core: snapshot accuracy target (%g,%g) != session (%g,%g)",
			st.Alpha, st.Beta, s.cfg.Alpha, s.cfg.Beta)
	}
	if st.Tau != s.cfg.Tau {
		return fmt.Errorf("core: snapshot τ %g != session τ %g", st.Tau, s.cfg.Tau)
	}
	if st.Structure != s.cfg.Structure {
		return fmt.Errorf("core: snapshot structure %v != session structure %v", st.Structure, s.cfg.Structure)
	}
	return nil
}

// singleSection adapts the single PMW-Bypass into a persist.Snapshotter.
type singleSection struct{ s *Session }

// SnapshotSection implements persist.Snapshotter.
func (p singleSection) SnapshotSection() string { return "pmw/single" }

// SnapshotPayload exports the non-partitioned PMW-Bypass's trained
// histogram — weights and counts (float slices) and update count — and
// its adaptive thresholds (a float slice, empty if untouched).
func (p singleSection) SnapshotPayload() []byte {
	s := p.s
	s.singleMu.Lock()
	defer s.singleMu.Unlock()
	h := s.single.Histogram().State()
	var e persist.Encoder
	e.PutFloats(h.Weights)
	e.PutFloats(h.Counts)
	e.PutInt(h.Updates)
	var thresholds []float64
	if ap, ok := s.single.Heuristic().(*heuristic.AdaptivePerBin); ok {
		_, _, thresholds = ap.State()
	}
	e.PutFloats(thresholds)
	return e.Payload()
}

// StagePayload implements persist.Snapshotter: it checks everything the
// warm start needs — a normalized histogram over the domain and, for an
// adaptive heuristic, one threshold per bin — and the apply warm-starts
// the PMW from the snapshot.
func (p singleSection) StagePayload(payload []byte) (func(), error) {
	s := p.s
	d := persist.NewDecoder(payload)
	st := histogram.State{Weights: d.Floats(), Counts: d.Floats(), Updates: d.Int()}
	thresholds := d.Floats()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	h, err := histogram.FromState(st)
	if err != nil {
		return nil, err
	}
	size := s.ds.Domain().Size()
	if h.Size() != size {
		return nil, fmt.Errorf("core: snapshot histogram size %d != domain %d", h.Size(), size)
	}
	s.singleMu.Lock()
	ap, adaptive := s.single.Heuristic().(*heuristic.AdaptivePerBin)
	s.singleMu.Unlock()
	if adaptive && thresholds != nil && len(thresholds) != size {
		return nil, fmt.Errorf("core: snapshot threshold length %d != domain %d", len(thresholds), size)
	}
	return func() {
		s.singleMu.Lock()
		defer s.singleMu.Unlock()
		_ = s.single.WarmStart(h, nil) // its refusals are the checks above
		if adaptive && thresholds != nil {
			ap.SetThresholds(thresholds)
		}
	}, nil
}
