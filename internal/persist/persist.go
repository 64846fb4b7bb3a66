// Package persist is Turbo's durable-state subsystem: a versioned,
// section-tagged snapshot envelope plus the registry that orchestrates
// saving and restoring every stateful layer of a session.
//
// The paper's whole value proposition is accumulated state — exact-cache
// entries, PMW/tree histograms, and spent privacy budget — so a restart
// must not forfeit it (§5 notes Redis "can be replaced with a persistent,
// consistent and durable storage service"; this package is that seam).
// Each stateful layer (the session's identity, dataset and counters, the
// accountant block, the exact cache, the PMW and the tree) implements
// Snapshotter and contributes one named section; the envelope carries
// them behind a magic header and a format version.
//
// # Envelope format (v8)
//
//	offset 0: magic "TURBOSNP" (8 bytes, raw)
//	offset 8: format version (uint32, big-endian)
//	then:     a gzip stream of frames — uvarint name length, name,
//	          uvarint payload length, payload — ended by a frame whose
//	          name is empty (the end marker, with no payload length)
//
// The raw magic lets a reader reject non-snapshot input with a typed
// error; the explicit end marker, and the gzip trailer drained after it,
// let it tell a whole snapshot from a truncated one. Section payloads are
// opaque to the envelope: each layer encodes and decodes its own bytes
// with the codec in codec.go, so a payload failure is attributed to the
// offending section by name (SectionError).
//
// One version is read: the one written. v1 (a raw gob stream), v2 (gob,
// gzip-compressed), v3 (this envelope, whose sections still carried
// data versions and the cache's stripe blocks), v4 (whose cache entries
// still carried the ε each release was paid at), v5 (whose cache values
// were byte strings in a tagged 9-byte codec, where v6 writes the
// float64), v6 (whose dataset section was optional, its counts floats
// beside a row count, and whose meta section listed every partition's
// rows, where v7 always writes the dataset as uvarint counts) and v7
// (which carried the session's answer counters in its meta section,
// where v8 keeps none) are refused with ErrBadVersion naming both
// versions, so a file from an older build is refused whole rather than
// half-restored. Every registered section is
// required: a snapshot lacking one is ErrMissingSection.
package persist

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// magic identifies a Turbo snapshot stream. Exactly 8 bytes.
const magic = "TURBOSNP"

// FormatVersion is the envelope format this build writes and the only one
// it reads. Sections carry no version of their own, so a change to any
// section's layout bumps it.
const FormatVersion uint32 = 8

// Typed envelope errors: LoadState callers (and the HTTP /restore
// endpoint) branch on these instead of string-matching decode failures.
var (
	// ErrBadMagic reports input that is not a Turbo snapshot at all.
	ErrBadMagic = errors.New("persist: not a Turbo snapshot (bad magic)")
	// ErrBadVersion reports a snapshot from an incompatible format version.
	ErrBadVersion = errors.New("persist: unsupported snapshot format version")
	// ErrTruncated reports a stream that ended before its end marker.
	ErrTruncated = errors.New("persist: truncated snapshot")
	// ErrUnknownSection reports a section no registered layer owns.
	ErrUnknownSection = errors.New("persist: unknown snapshot section")
	// ErrMissingSection reports a required section absent from the stream.
	ErrMissingSection = errors.New("persist: snapshot lacks required section")
	// ErrDuplicateSection reports a section tag appearing twice.
	ErrDuplicateSection = errors.New("persist: duplicate snapshot section")
)

// SectionError attributes a section's write or stage failure to the
// section by name.
type SectionError struct {
	Section string
	Err     error
}

// Error implements error.
func (e *SectionError) Error() string {
	return fmt.Sprintf("persist: section %q: %v", e.Section, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *SectionError) Unwrap() error { return e.Err }

// Snapshotter is one stateful layer's contribution to a snapshot: a
// uniquely-tagged section whose payload the layer encodes and decodes
// itself.
type Snapshotter interface {
	// SnapshotSection returns the layer's unique section tag
	// (conventionally "layer/detail", e.g. "accountant/block").
	SnapshotSection() string
	// SnapshotPayload encodes the layer's current state.
	SnapshotPayload() []byte
	// StagePayload decodes a previously-encoded payload and checks
	// everything about it, changing nothing, and returns the apply that
	// puts it in place. The apply cannot fail: Load runs it only once
	// every section has staged.
	StagePayload(payload []byte) (apply func(), err error)
}

// Writer writes a snapshot envelope section by section.
type Writer struct {
	// gz is the envelope's compression layer; Close must flush it after
	// the end marker.
	gz *gzip.Writer
}

// NewWriter writes the magic header and current format version to w and
// returns a section writer over it.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(binary.BigEndian.AppendUint32([]byte(magic), FormatVersion)); err != nil {
		return nil, fmt.Errorf("persist: write header: %w", err)
	}
	return &Writer{gz: gzip.NewWriter(w)}, nil
}

// WriteSection appends one named section. Names must be non-empty and
// unique within a snapshot; the Registry enforces uniqueness.
func (w *Writer) WriteSection(name string, payload []byte) error {
	if name == "" {
		return errors.New("persist: empty section name")
	}
	hdr := append(binary.AppendUvarint(nil, uint64(len(name))), name...)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	if _, err := w.gz.Write(hdr); err != nil {
		return &SectionError{Section: name, Err: err}
	}
	if _, err := w.gz.Write(payload); err != nil {
		return &SectionError{Section: name, Err: err}
	}
	return nil
}

// Close writes the end marker and flushes the compression layer. The
// underlying writer is not closed.
func (w *Writer) Close() error {
	if _, err := w.gz.Write([]byte{0}); err != nil {
		return fmt.Errorf("persist: write end marker: %w", err)
	}
	if err := w.gz.Close(); err != nil {
		return fmt.Errorf("persist: flush compressed envelope: %w", err)
	}
	return nil
}

// ReadSections validates the envelope header and reads every section,
// returning payloads by name. It fails with ErrBadMagic, ErrBadVersion,
// ErrTruncated, or ErrDuplicateSection.
func ReadSections(r io.Reader) (map[string][]byte, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Too short to even carry the magic: not a snapshot.
			return nil, ErrBadMagic
		}
		// A genuine read failure is not a verdict about the content.
		return nil, fmt.Errorf("persist: read snapshot header: %w", err)
	}
	if string(head) != magic {
		return nil, ErrBadMagic
	}
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return nil, fmt.Errorf("%w: header ends before format version", ErrTruncated)
	}
	if version := binary.BigEndian.Uint32(head); version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build reads v%d", ErrBadVersion, version, FormatVersion)
	}
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: compressed stream ends before its header (%v)", ErrTruncated, err)
	}
	br := bufio.NewReader(gz)
	payloads := make(map[string][]byte)
	for {
		name, err := readChunk(br)
		var payload []byte
		if err == nil && len(name) > 0 {
			payload, err = readChunk(br)
		}
		if err != nil {
			// Any failure before the end marker — io.EOF included — means
			// the stream stopped mid-snapshot.
			return nil, fmt.Errorf("%w: stream ends before the end marker (%v)", ErrTruncated, err)
		}
		if len(name) == 0 {
			// Drain the compression layer: the end marker can arrive from a
			// stream cut before the gzip trailer, and only the trailer's
			// checksum proves the snapshot arrived whole.
			if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("%w: compressed stream ends before its trailer (%v)", ErrTruncated, err)
			}
			return payloads, nil
		}
		if _, dup := payloads[string(name)]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateSection, name)
		}
		payloads[string(name)] = payload
	}
}

// readChunk reads one length-prefixed frame field. The length is the
// stream's claim, not an allocation size: the bytes are read through a
// limited reader, so memory grows only with what is actually there, and a
// stream shorter than its claim is io.ErrUnexpectedEOF.
func readChunk(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("frame length %d", n)
	}
	b, err := io.ReadAll(io.LimitReader(br, int64(n)))
	if err == nil && uint64(len(b)) != n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// Registry holds the Snapshotters of one session in registration order,
// which is the order Load stages and applies them in; Capture writes in
// the reverse order (see Capture for why).
type Registry struct {
	order  []Snapshotter
	byName map[string]Snapshotter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Snapshotter)}
}

// Register adds a layer at the end of the stage and apply order. Each
// section has one owner: registering a tag twice panics.
func (r *Registry) Register(s Snapshotter) {
	name := s.SnapshotSection()
	if name == "" {
		panic("persist: Snapshotter with empty section name")
	}
	if _, ok := r.byName[name]; ok {
		panic("persist: section " + name + " registered twice")
	}
	r.order = append(r.order, s)
	r.byName[name] = s
}

// Capture writes one section per registered layer. Encoding a payload
// cannot fail, so Capture fails only on w's errors.
//
// Sections are CAPTURED in reverse registration order — machinery state
// (caches, histograms: the released results) before the accountants —
// while Load applies in registration order regardless of on-stream
// order. The reversal is what makes a payment racing the snapshot skew
// conservative only: every mechanism pays before it caches its result,
// so a release captured in an earlier-read cache section already has
// its charge in the later-read accountant sections. The opposite order
// could capture a cached DP release whose budget charge is missing,
// and a restore would then under-count privacy spend. (A fully
// consistent image still wants no in-flight queries; the race can at
// worst record spend whose result was not yet cached.)
func (r *Registry) Capture(w io.Writer) error {
	sw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for i := len(r.order) - 1; i >= 0; i-- {
		s := r.order[i]
		if err := sw.WriteSection(s.SnapshotSection(), s.SnapshotPayload()); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Load reads a snapshot and restores every registered layer from its
// section, all or nothing: it stages every section, in registration order
// regardless of on-stream order, before it applies any. A section with no
// registered owner is ErrUnknownSection; a registered layer with no
// section is ErrMissingSection; a section its layer refuses to
// stage is a SectionError naming it. Each of those leaves every layer as
// it was.
func (r *Registry) Load(rd io.Reader) error {
	payloads, err := ReadSections(rd)
	if err != nil {
		return err
	}
	for name := range payloads {
		if _, ok := r.byName[name]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownSection, name)
		}
	}
	applies := make([]func(), 0, len(r.order))
	for _, s := range r.order {
		name := s.SnapshotSection()
		payload, ok := payloads[name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrMissingSection, name)
		}
		apply, err := s.StagePayload(payload)
		if err != nil {
			return &SectionError{Section: name, Err: err}
		}
		applies = append(applies, apply)
	}
	for _, apply := range applies {
		apply()
	}
	return nil
}

// WriteFileAtomic writes a snapshot (or any stream) to path via a
// temporary file in the same directory, fsync, and rename, so a crash
// mid-write never leaves a torn snapshot where a valid one stood — the
// write discipline the server's checkpoint path and turbo-server's
// -state flag rely on.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".turbosnap-*")
	if err != nil {
		return fmt.Errorf("persist: create temp snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	// Make the rename itself durable: without a directory fsync a crash
	// right after "checkpoint written" could still resurface the old (or
	// no) snapshot at next boot on some filesystems.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
