// KV-backed incremental snapshots: instead of materializing one envelope
// blob, a Registry can write each section as its own key in a storage
// backend namespace. A manifest key records the format version, the
// section list, and a content hash per section; the next checkpoint
// skips every section whose hash is unchanged — warm histograms that saw
// no update between checkpoints cost no write at all. This is the
// "backend-resident incremental snapshot" seam the envelope's format
// version reserved: the store.Backend interface is the storage contract,
// so the same checkpoint streams into the in-memory store today and a
// persistent service tomorrow.

package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// KV is the minimal storage surface incremental snapshots need.
// store.Backend satisfies it; the interface is declared here (consumer
// side) so persist stays free of storage dependencies.
type KV interface {
	Set(ns, k string, value any) error
	Get(ns, k string, out any) (bool, error)
	Keys(ns string) []string
	Delete(ns, k string) bool
}

// kvManifestKey names the manifest inside a snapshot namespace. The "!"
// prefix sorts it apart from section keys, which are all "layer/..."
// tags.
const kvManifestKey = "!manifest"

// kvManifest is the snapshot namespace's table of contents.
type kvManifest struct {
	// Version is the envelope format version the sections were written
	// under (payload encodings are version-independent; the field guards
	// future payload-format changes the same way the envelope does).
	Version uint32
	// Sections lists every section key present, in capture order.
	Sections []string
	// Sums maps each section to the SHA-256 of its payload, the
	// change-detection that makes checkpoints incremental.
	Sums map[string]string
}

// SaveKV checkpoints every registered layer into namespace ns of kv, one
// key per section, skipping sections whose payload hash matches the
// previous manifest (returned in skipped). Like Save, it quiesces
// background layers first and captures in reverse registration order, so
// a payment racing the checkpoint can only skew conservative. Stale keys
// from sections that disappeared (e.g. an optional section gone idle)
// are deleted. The manifest is written last: a crash mid-checkpoint
// leaves the previous manifest naming only fully-written sections —
// except for sections the torn checkpoint already overwrote, which is
// the same torn-write caveat any in-place store has; deployments that
// need atomic images keep using the enveloped WriteFileAtomic path.
func (r *Registry) SaveKV(kv KV, ns string) (written, skipped int, err error) {
	resume := r.QuiesceAll()
	defer resume()
	return r.CaptureKV(kv, ns)
}

// CaptureKV is SaveKV without the quiesce barrier, for callers that
// interleave their own barriers (core.Session holds its append mutex
// across the capture).
func (r *Registry) CaptureKV(kv KV, ns string) (written, skipped int, err error) {
	var prev kvManifest
	if _, err := kv.Get(ns, kvManifestKey, &prev); err != nil {
		// A previous manifest that exists but cannot be decoded (torn write,
		// corrupt byte) must not wedge checkpointing forever: treat it as
		// absent. Every section hash then misses, so the next checkpoint is
		// a full rewrite (skipped=0) that lays down a fresh manifest —
		// self-healing at the cost of one non-incremental save.
		prev = kvManifest{}
	}
	next := kvManifest{Version: FormatVersion, Sums: make(map[string]string)}
	for i := len(r.order) - 1; i >= 0; i-- {
		s := r.order[i]
		name := s.SnapshotSection()
		payload, err := s.SnapshotPayload()
		if err != nil {
			return written, skipped, &SectionError{Section: name, Err: err}
		}
		if payload == nil && optional(s) {
			continue
		}
		sum := payloadSum(payload)
		next.Sections = append(next.Sections, name)
		next.Sums[name] = sum
		if prev.Sums[name] == sum {
			// Skip only if the key actually survives in the store: a
			// deleted or evicted section key would otherwise never be
			// rewritten (its hash never changes) and every restore would
			// see a permanently torn checkpoint.
			var existing []byte
			if ok, err := kv.Get(ns, name, &existing); err == nil && ok && payloadSum(existing) == sum {
				skipped++
				continue
			}
		}
		if err := kv.Set(ns, name, payload); err != nil {
			return written, skipped, &SectionError{Section: name, Err: err}
		}
		written++
	}
	// Drop keys of sections no longer captured, so a reader never sees a
	// stale optional section resurrect.
	for _, name := range prev.Sections {
		if _, ok := next.Sums[name]; !ok {
			kv.Delete(ns, name)
		}
	}
	if err := kv.Set(ns, kvManifestKey, next); err != nil {
		return written, skipped, fmt.Errorf("persist: write manifest: %w", err)
	}
	return written, skipped, nil
}

// LoadKV restores every registered layer from namespace ns of kv, with
// the same validation discipline as Load: the manifest's version must be
// readable, unknown and missing sections are refused before any layer
// restores, and payload failures are SectionErrors naming the layer.
func (r *Registry) LoadKV(kv KV, ns string) error {
	var m kvManifest
	ok, err := kv.Get(ns, kvManifestKey, &m)
	if err != nil {
		return fmt.Errorf("persist: read manifest: %w", err)
	}
	if !ok {
		return fmt.Errorf("%w: namespace %q has no snapshot manifest", ErrMissingSection, ns)
	}
	if m.Version != FormatVersion && m.Version != formatV1 {
		return fmt.Errorf("%w: KV snapshot is v%d, this build reads v%d and v%d",
			ErrBadVersion, m.Version, formatV1, FormatVersion)
	}
	payloads := make(map[string][]byte, len(m.Sections))
	for _, name := range m.Sections {
		var payload []byte
		ok, err := kv.Get(ns, name, &payload)
		if err != nil {
			return &SectionError{Section: name, Err: err}
		}
		if !ok {
			return fmt.Errorf("%w: %q named by the manifest but absent (torn checkpoint)",
				ErrTruncated, name)
		}
		payloads[name] = payload
	}
	return r.restore(payloads)
}

// payloadSum hashes a section payload for the manifest.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
