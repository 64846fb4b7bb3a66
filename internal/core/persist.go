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
// latch (internal/server/httpd).

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
// partition count and rows per partition). It must run before the session
// serves anything: no Answer, AnswerBatch or AppendPartitions may run
// concurrently with it, and a session that already answered refuses with
// ErrAlreadyServing. Envelope and section failures surface as typed
// errors (persist.ErrBadMagic, persist.ErrTruncated, *persist.SectionError
// naming the offending section, ...). Every section stages before any
// applies, so a refused load leaves the session as it was: it serves as
// if no restore had been tried.
func (s *Session) LoadState(r io.Reader) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.Queries() > 0 {
		return ErrAlreadyServing
	}
	s.restoreRows = nil
	if err := s.registry.Load(r); err != nil {
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
// stages between identity and meta: after the config validation, before
// the meta section's partition and row check and the block's ledger
// check, which then run against the staged data; the block's own apply
// grows the books to match. Restoring such snapshots needs no opt-in: the
// section's owner is always registered. Call before serving traffic.
func (s *Session) PersistDataset() {
	s.persistData = true
}

// datasetSection adapts the dataset into a persist.Snapshotter.
type datasetSection struct{ s *Session }

// SnapshotSection implements persist.Snapshotter.
func (d datasetSection) SnapshotSection() string { return "dataset/partitions" }

// SnapshotOptional lets snapshots without the section (sessions that
// never opted in) restore anywhere.
func (d datasetSection) SnapshotOptional() bool { return true }

// SnapshotPayload exports the full dataset content, or omits the
// section entirely unless the session opted in (PersistDataset).
//
// The section's layout: the partition count, then per partition its
// per-bin counts (a float slice) and row count.
func (d datasetSection) SnapshotPayload() []byte {
	if !d.s.persistData {
		return nil
	}
	st := d.s.ds.ExportState()
	var e persist.Encoder
	e.PutUvarint(uint64(len(st.Parts)))
	for _, p := range st.Parts {
		e.PutFloats(p.Counts)
		e.PutInt(p.N)
	}
	return e.Payload()
}

// StagePayload implements persist.Snapshotter: it decodes the section and
// checks it against the domain (dataset.CheckState) and the session's
// shape, so a poisoned dataset — a NaN, an infinite, negative or
// fractional count, a row count that is not the sum of its counts — is
// refused with the books and caches untouched. It records the staged
// rows for the meta section's check (restoreRows); the apply replaces
// the dataset content.
func (d datasetSection) StagePayload(payload []byte) (func(), error) {
	dec := persist.NewDecoder(payload)
	st := dataset.State{Parts: make([]dataset.PartitionState, dec.Count(2))}
	for i := range st.Parts {
		st.Parts[i] = dataset.PartitionState{Counts: dec.Floats(), N: dec.Int()}
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
	s.restoreRows = make([]int, len(st.Parts))
	for p, part := range st.Parts {
		s.restoreRows[p] = part.N
	}
	return func() {
		_ = s.ds.RestoreState(st) // its only refusal is CheckState's, passed above
	}, nil
}

// buildRegistry assembles the session's snapshot sections in stage and
// apply order: identity first (validation-only, so its refusal names the
// configuration field that differs), then the dataset, meta (dataset
// shape and counters) and the accountant, each checked against the
// dataset the restore leaves, then caches and histogram machinery. Every
// section stages before any applies, so a snapshot whose configuration,
// data, accounting, caches or histograms this session can never accept
// is a refusal that leaves the session as it was.
func (s *Session) buildRegistry() {
	s.registry = persist.NewRegistry()
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

// metaSection adapts the session's dataset-shape validation and
// counters into a persist.Snapshotter. Its "core/meta" payload: the
// partition count the snapshot was taken at and each partition's row
// count, the query and dedup counters, then the count of per-source
// counters and each one's source name and count, in Sources order so the
// payload encodes deterministically (snapshotdet;
// TestSnapshotBytesDeterministic).
type metaSection struct{ s *Session }

// SnapshotSection implements persist.Snapshotter.
func (m metaSection) SnapshotSection() string { return "core/meta" }

// SnapshotPayload captures the dataset shape and counters.
func (m metaSection) SnapshotPayload() []byte {
	s := m.s
	counts := s.SourceCounts()
	rows := rowsPerPartition(s.ds)
	var e persist.Encoder
	e.PutUvarint(uint64(len(rows)))
	for _, n := range rows {
		e.PutInt(n)
	}
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
	return e.Payload()
}

// StagePayload implements persist.Snapshotter: it checks the snapshot
// against the dataset the restore leaves (the staged dataset section's,
// or the session's own) partition by partition, and its counters are
// counts; the apply restores the counters. A served partition's rows never change, so a dataset
// whose partition holds another row count is not the one the snapshot's
// cached results were released on. The block stages next, and its ledger
// must cover the same partitions (ExpectPartitions).
func (m metaSection) StagePayload(payload []byte) (func(), error) {
	s := m.s
	d := persist.NewDecoder(payload)
	rows := make([]int, d.Count(1))
	for p := range rows {
		rows[p] = d.Int()
	}
	queries, deduped := d.Int(), d.Int()
	least := min(queries, deduped)
	n := d.Count(2)
	bySource := make(map[Source]int, n)
	for range n {
		src := Source(d.Bytes())
		bySource[src] = d.Int()
		least = min(least, bySource[src])
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if least < 0 {
		// A negative query count would let a later LoadState pass the
		// ErrAlreadyServing check on a session that has answered.
		return nil, fmt.Errorf("core: snapshot counter %d is negative", least)
	}
	have := s.restoreRows
	if have == nil {
		have = rowsPerPartition(s.ds)
	}
	if len(rows) != len(have) {
		return nil, fmt.Errorf("core: snapshot has %d partitions, dataset has %d", len(rows), len(have))
	}
	for p, n := range rows {
		if n != have[p] {
			return nil, fmt.Errorf("core: snapshot's partition %d has %d rows, dataset's has %d — cached results would be stale",
				p, n, have[p])
		}
	}
	s.block.ExpectPartitions(len(rows))
	return func() {
		s.queries.Store(int64(queries))
		s.deduped.Store(int64(deduped))
		for src, count := range bySource {
			if i, ok := sourceIndex[src]; ok {
				s.bySrc[i].Store(int64(count))
			}
		}
	}, nil
}

// rowsPerPartition returns the row count of each of ds's partitions.
func rowsPerPartition(ds *dataset.Dataset) []int {
	rows := make([]int, ds.Partitions())
	for p := range rows {
		rows[p], _ = ds.NRows(p, p)
	}
	return rows
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
// warm start needs — a fresh PMW, a normalized histogram over the domain
// and, for an adaptive heuristic, one threshold per bin — and the apply
// warm-starts the PMW from the snapshot.
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
	served := s.single.Stats().Queries
	ap, adaptive := s.single.Heuristic().(*heuristic.AdaptivePerBin)
	s.singleMu.Unlock()
	if served > 0 {
		return nil, errors.New("core: pmw restore after queries were served")
	}
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
