// Session persistence: the prototype keeps all caching state in Redis
// (§5); here a session serializes that state — exact caches, PMW/tree
// histograms, heuristic thresholds, and the accountant — through the
// internal/persist envelope (versioned, section-tagged), and a fresh
// session over the same dataset restores it. SaveState/LoadState are
// thin orchestrators: every stateful layer registers itself as a
// persist.Snapshotter section (see buildRegistry), and the registry does
// the rest.
//
// Gaussian/Rényi sessions round-trip like pure-ε ones: the accountant
// section carries the whole per-partition, per-order ledger, so a
// restored session sees the exact composed history and needs no step to
// bring anything else back in line with it.
//
// Sparse-vector state is intentionally not persisted: a restored session
// re-initializes SVs on first use (one init payment per SV), which is
// always safe. Restoring runs before the new session serves anything:
// that is LoadState's precondition, not a protocol it enforces against
// concurrent traffic, and an HTTP server keeps it with its own boot
// latch (internal/server).

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

// ErrAlreadyServing reports a LoadState attempted after the session
// answered queries; restore only targets fresh sessions.
var ErrAlreadyServing = errors.New("core: LoadState after queries were served")

// ErrStateCorrupt marks a LoadState that failed after it began mutating:
// the session is partially restored. The partial state is always
// privacy-conservative (charges restore before the results they paid
// for), but it is undefined — the session must be discarded.
var ErrStateCorrupt = errors.New("core: session state corrupted by a failed restore; discard the session")

// SaveState serializes the session's caching and accounting state as a
// persist envelope: one section per registered layer, with no arrival
// mid-application for the duration. The image is fully
// consistent when no queries are in flight; concurrent answers at worst
// skew late sections the way any external observer could (and only in
// the conservative direction — see persist.Registry.Capture).
func (s *Session) SaveState(w io.Writer) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
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
// session with the same configuration over the same dataset (same
// partition count and version). It must run before the session serves
// anything: no Answer, AnswerBatch or AppendPartitions may run
// concurrently with it, and a session that already answered refuses with
// ErrAlreadyServing. Envelope and section failures surface as typed
// errors (persist.ErrBadMagic, persist.ErrTruncated, *persist.SectionError
// naming the offending section, ...). Those that leave the session
// untouched — envelope failures and validation mismatches — let it serve
// as if no restore had been tried; a failure after the restore began
// mutating also wraps ErrStateCorrupt, and the session must be discarded.
func (s *Session) LoadState(r io.Reader) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.Queries() > 0 {
		return ErrAlreadyServing
	}
	s.restoreMutated = false
	if err := s.registry.Load(r); err != nil {
		// The core-owned sections flip restoreMutated only once their
		// validations pass, and every other section runs after core/meta
		// has already flipped it.
		if s.restoreMutated {
			return fmt.Errorf("core: load state: %w: %w", ErrStateCorrupt, err)
		}
		return fmt.Errorf("core: load state: %w", err)
	}
	return nil
}

// PersistDataset opts the session into writing the dataset itself as a
// snapshot section ("dataset/partitions"). Sessions over an
// externally-durable DBMS never need it — the restore contract is "same
// dataset" — but deployments whose store is in-memory (the HTTP server
// under streaming ingestion, turbo-server's synthetic builds) would
// otherwise produce checkpoints that can never be restored once /append
// has grown the dataset beyond what a fresh boot rebuilds. The section
// restores between identity and meta: after the config validation (a
// foreign snapshot must not replace the dataset), before the meta
// section's partition/version check (which then runs against the
// restored data); the session's accountants grow to match before their
// own sections restore. Restoring such snapshots needs no opt-in: the
// section's owner is always registered. Call before serving traffic.
func (s *Session) PersistDataset() {
	s.persistData = true
}

// datasetSection adapts the dataset (plus the accountant growth a
// restored stream implies) into a persist.Snapshotter.
type datasetSection struct{ s *Session }

// SnapshotSection implements persist.Snapshotter.
func (d datasetSection) SnapshotSection() string { return "dataset/partitions" }

// SnapshotOptional lets snapshots without the section (sessions that
// never opted in) restore anywhere.
func (d datasetSection) SnapshotOptional() bool { return true }

// SnapshotPayload exports the full dataset content, or omits the
// section entirely unless the session opted in (PersistDataset).
//
// The section's layout: the dataset version, the partition count, then per
// partition its per-bin counts (a float slice), row count and version.
func (d datasetSection) SnapshotPayload() ([]byte, error) {
	if !d.s.persistData {
		return nil, nil
	}
	st := d.s.ds.ExportState()
	var e persist.Encoder
	e.PutInt(st.Version)
	e.PutUvarint(uint64(len(st.Parts)))
	for _, p := range st.Parts {
		e.PutFloats(p.Counts)
		e.PutInt(p.N)
		e.PutInt(p.Version)
	}
	return e.Payload(), nil
}

// StagePayload implements persist.Stager: it decodes the section and
// checks it against the domain (dataset.CheckState) and the session's
// shape before any section restores, so a poisoned dataset — a NaN, an
// infinite, negative or fractional count, a row count that is not the sum
// of its counts — is refused with the books and caches untouched. The
// apply grows the session's accountants over any partitions the
// snapshot's stream had appended beyond the fresh build, then replaces
// the dataset content — accountants first, the AppendPartitions ordering,
// so the books always cover every queryable partition.
func (d datasetSection) StagePayload(payload []byte) (func() error, error) {
	dec := persist.NewDecoder(payload)
	st := dataset.State{Version: dec.Int()}
	st.Parts = make([]dataset.PartitionState, dec.Count(3))
	for i := range st.Parts {
		st.Parts[i] = dataset.PartitionState{Counts: dec.Floats(), N: dec.Int(), Version: dec.Int()}
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	s := d.s
	if err := s.ds.CheckState(st); err != nil {
		return nil, err
	}
	delta := len(st.Parts) - s.ds.Partitions()
	if delta < 0 {
		return nil, fmt.Errorf("core: snapshot dataset has %d partitions, session already has %d",
			len(st.Parts), s.ds.Partitions())
	}
	if delta > 0 && s.tree == nil {
		return nil, errors.New("core: snapshot dataset grew beyond the non-partitioned session's fixed range")
	}
	return func() error {
		s.restoreMutated = true
		if delta > 0 {
			s.block.AddPartitions(delta)
		}
		return s.ds.RestoreState(st)
	}, nil
}

// RestorePayload stages the section and applies it.
func (d datasetSection) RestorePayload(payload []byte) error {
	apply, err := d.StagePayload(payload)
	if err != nil {
		return err
	}
	return apply()
}

// buildRegistry assembles the session's snapshot sections in restore
// order: identity first (validation-only, so a foreign-config snapshot
// is refused before anything — the optional dataset section included —
// mutates), then meta (dataset shape and counters), then the accountant,
// then caches and histogram machinery.
func (s *Session) buildRegistry() {
	s.registry = persist.NewRegistry()
	// Identity, the dataset, the block and the caches are persist.Stagers:
	// each vets its section before any section restores, so a snapshot
	// whose configuration, data, accounting or cache entries this session
	// can never accept is a recoverable refusal rather than a half-restored
	// session.
	// Identity stages first: its refusal names the configuration field that
	// differs.
	s.registry.Register(identitySection{s})
	// The dataset section's owner is always registered — every session
	// can RESTORE a dataset-carrying snapshot — but the section is only
	// WRITTEN after PersistDataset() opts in, so snapshots stay lean for
	// sessions whose store is externally durable.
	s.registry.Register(datasetSection{s})
	s.registry.Register(metaSection{s})
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
// declaration order. Its restore is pure validation — it never mutates,
// so a foreign-config snapshot is always a recoverable refusal, even when
// a dataset section follows.
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
func (m identitySection) SnapshotPayload() ([]byte, error) {
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
	return e.Payload(), nil
}

// StagePayload implements persist.Stager: the whole restore is the
// validation, so it runs before any section restores and applies nothing.
func (m identitySection) StagePayload(payload []byte) (func() error, error) {
	if err := m.RestorePayload(payload); err != nil {
		return nil, err
	}
	return func() error { return nil }, nil
}

// RestorePayload validates — and only validates — the configuration.
func (m identitySection) RestorePayload(payload []byte) error {
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

// metaSection adapts the session's dataset-shape validation and
// counters into a persist.Snapshotter. Its "core/meta" payload: the
// dataset version and partition count the snapshot was taken at, the
// query and dedup counters, then the count of per-source counters and
// each one's source name and count, in Sources order so the payload
// encodes deterministically (snapshotdet; TestSnapshotBytesDeterministic).
type metaSection struct{ s *Session }

// SnapshotSection implements persist.Snapshotter.
func (m metaSection) SnapshotSection() string { return "core/meta" }

// SnapshotPayload captures the dataset shape and counters.
func (m metaSection) SnapshotPayload() ([]byte, error) {
	s := m.s
	counts := s.SourceCounts()
	var e persist.Encoder
	e.PutInt(s.ds.Version())
	e.PutInt(s.ds.Partitions())
	e.PutInt(s.Queries())
	e.PutInt(s.Deduped())
	e.PutUvarint(uint64(len(counts)))
	// Sources is in fixed order, so the payload is byte-stable.
	for _, src := range Sources {
		if v, ok := counts[src]; ok {
			e.PutString(string(src))
			e.PutInt(v)
		}
	}
	return e.Payload(), nil
}

// RestorePayload validates that the snapshot matches the session's
// dataset (as possibly just restored by the dataset section), then
// restores the counters.
func (m metaSection) RestorePayload(payload []byte) error {
	s := m.s
	d := persist.NewDecoder(payload)
	version, partitions, queries, deduped := d.Int(), d.Int(), d.Int(), d.Int()
	n := d.Count(2)
	bySource := make(map[Source]int, n)
	for range n {
		src := Source(d.Bytes())
		bySource[src] = d.Int()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if partitions != s.ds.Partitions() {
		return fmt.Errorf("core: snapshot has %d partitions, dataset has %d", partitions, s.ds.Partitions())
	}
	if version != s.ds.Version() {
		return fmt.Errorf("core: snapshot taken at dataset version %d, have %d — cached results would be stale",
			version, s.ds.Version())
	}
	// Every validation passed: counters move here, and every machinery
	// section runs after this one.
	s.restoreMutated = true
	s.queries.Store(int64(queries))
	s.deduped.Store(int64(deduped))
	for src, count := range bySource {
		if i, ok := sourceIndex[src]; ok {
			s.bySrc[i].Store(int64(count))
		}
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
func (p singleSection) SnapshotPayload() ([]byte, error) {
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
	return e.Payload(), nil
}

// RestorePayload warm-starts the fresh PMW from the snapshot.
func (p singleSection) RestorePayload(payload []byte) error {
	s := p.s
	d := persist.NewDecoder(payload)
	st := histogram.State{Weights: d.Floats(), Counts: d.Floats(), Updates: d.Int()}
	thresholds := d.Floats()
	if err := d.Finish(); err != nil {
		return err
	}
	h, err := histogram.FromState(st)
	if err != nil {
		return err
	}
	s.singleMu.Lock()
	defer s.singleMu.Unlock()
	if err := s.single.WarmStart(h, nil); err != nil {
		return err
	}
	if ap, ok := s.single.Heuristic().(*heuristic.AdaptivePerBin); ok && thresholds != nil {
		ap.SetThresholds(thresholds)
	}
	return nil
}
