package persist

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fakeLayer is a minimal Snapshotter for envelope tests.
type fakeLayer struct {
	name    string
	state   []byte
	opt     bool
	loadErr error
}

func (f *fakeLayer) SnapshotSection() string { return f.name }
func (f *fakeLayer) SnapshotPayload() []byte { return f.state }
func (f *fakeLayer) StagePayload(p []byte) (func(), error) {
	if f.loadErr != nil {
		return nil, f.loadErr
	}
	return func() { f.state = append([]byte(nil), p...) }, nil
}
func (f *fakeLayer) SnapshotOptional() bool { return f.opt }

func TestRoundTrip(t *testing.T) {
	a := &fakeLayer{name: "a", state: []byte("alpha")}
	b := &fakeLayer{name: "b", state: []byte("beta")}
	reg := NewRegistry()
	reg.Register(a)
	reg.Register(b)

	var buf bytes.Buffer
	if err := reg.Capture(&buf); err != nil {
		t.Fatal(err)
	}

	a2 := &fakeLayer{name: "a"}
	b2 := &fakeLayer{name: "b"}
	reg2 := NewRegistry()
	reg2.Register(a2)
	reg2.Register(b2)
	if err := reg2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if string(a2.state) != "alpha" || string(b2.state) != "beta" {
		t.Fatalf("restored %q/%q", a2.state, b2.state)
	}
}

func TestBadMagic(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&fakeLayer{name: "a"})
	for _, input := range [][]byte{nil, []byte("x"), []byte("NOTASNAP????????")} {
		if err := reg.Load(bytes.NewReader(input)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("input %q: err = %v, want ErrBadMagic", input, err)
		}
	}
}

// TestBadVersion: every version but the one written is refused before
// anything past the header is read, by an error naming both versions — the
// v1 and v2 envelopes of older builds (raw and gzip-compressed gob) and
// the v3 and v4 ones of the builds before included.
func TestBadVersion(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, 4, 6, 99} {
		input := binary.BigEndian.AppendUint32([]byte(magic), version)
		input = append(input, gzipped(t, []byte("a gob stream"))...)
		_, _, err := ReadSections(bytes.NewReader(input))
		want := fmt.Sprintf("snapshot is v%d, this build reads v5", version)
		if !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d: err = %v, want ErrBadVersion saying %q", version, err, want)
		}
	}
}

// gzipped compresses b as one gzip member.
func gzipped(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHugeLengthRefusedWithoutAllocating: a frame whose name or payload
// claims 2^40 bytes, with a handful present, is a truncated snapshot, and
// reading it allocates about what is there, not what is claimed.
func TestHugeLengthRefusedWithoutAllocating(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, frames := range map[string][]byte{
		"name":    append(append([]byte(nil), huge...), "abc"...),
		"payload": append(append([]byte{1, 'a'}, huge...), "abc"...),
	} {
		input := binary.BigEndian.AppendUint32([]byte(magic), FormatVersion)
		input = append(input, gzipped(t, frames)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadSections(bytes.NewReader(input))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err = %v, want ErrTruncated", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: reading a 2^40-byte claim allocated %d bytes", name, grew)
		}
	}
}

func TestTruncated(t *testing.T) {
	a := &fakeLayer{name: "a", state: bytes.Repeat([]byte("x"), 256)}
	reg := NewRegistry()
	reg.Register(a)
	var buf bytes.Buffer
	if err := reg.Capture(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut anywhere after the header but before the end: typed truncation.
	for cut := len(magic) + 2; cut < len(full); cut++ {
		err := reg.Load(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestUnknownAndMissingSections(t *testing.T) {
	a := &fakeLayer{name: "a", state: []byte("alpha")}
	b := &fakeLayer{name: "b", state: []byte("beta")}
	reg := NewRegistry()
	reg.Register(a)
	reg.Register(b)
	var buf bytes.Buffer
	if err := reg.Capture(&buf); err != nil {
		t.Fatal(err)
	}

	// A reader that only knows "a" trips over "b".
	onlyA := NewRegistry()
	onlyA.Register(&fakeLayer{name: "a"})
	if err := onlyA.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrUnknownSection) {
		t.Fatalf("err = %v, want ErrUnknownSection", err)
	}

	// A reader that also requires "c" misses it.
	withC := NewRegistry()
	withC.Register(&fakeLayer{name: "a"})
	withC.Register(&fakeLayer{name: "b"})
	withC.Register(&fakeLayer{name: "c"})
	if err := withC.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrMissingSection) {
		t.Fatalf("err = %v, want ErrMissingSection", err)
	}

	// Unless "c" is optional, in which case it is skipped.
	withOptC := NewRegistry()
	withOptC.Register(&fakeLayer{name: "a"})
	withOptC.Register(&fakeLayer{name: "b"})
	withOptC.Register(&fakeLayer{name: "c", opt: true})
	if err := withOptC.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestOptionalNilPayloadOmitted(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&fakeLayer{name: "a", state: []byte("alpha")})
	reg.Register(&fakeLayer{name: "idle", opt: true}) // nil payload
	var buf bytes.Buffer
	if err := reg.Capture(&buf); err != nil {
		t.Fatal(err)
	}
	_, order, err := ReadSections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("sections = %v, want [a]", order)
	}
}

func TestSectionErrorNamesOffender(t *testing.T) {
	boom := errors.New("boom")
	reg := NewRegistry()
	reg.Register(&fakeLayer{name: "good", state: []byte("x")})
	reg.Register(&fakeLayer{name: "bad", state: []byte("y")})
	var buf bytes.Buffer
	if err := reg.Capture(&buf); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	reg2.Register(&fakeLayer{name: "good"})
	reg2.Register(&fakeLayer{name: "bad", loadErr: boom})
	err := reg2.Load(bytes.NewReader(buf.Bytes()))
	var se *SectionError
	if !errors.As(err, &se) || se.Section != "bad" || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want SectionError naming \"bad\" wrapping boom", err)
	}
}

// TestLoadStagesEverySectionBeforeAnyApplies: a section that refuses to
// stage, named by a SectionError, leaves the sections registered before
// it unapplied; when every section stages, each apply runs once.
func TestLoadStagesEverySectionBeforeAnyApplies(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&fakeLayer{name: "first", state: []byte("x")})
	reg.Register(&fakeLayer{name: "last", state: []byte("y")})
	var buf bytes.Buffer
	if err := reg.Capture(&buf); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	first := &fakeLayer{name: "first", state: []byte("before")}
	reg2 := NewRegistry()
	reg2.Register(first)
	reg2.Register(&fakeLayer{name: "last", loadErr: boom})
	err := reg2.Load(bytes.NewReader(buf.Bytes()))
	var se *SectionError
	if !errors.As(err, &se) || se.Section != "last" || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want SectionError naming \"last\" wrapping boom", err)
	}
	if string(first.state) != "before" {
		t.Fatalf("the earlier section applied %q before the last refused", first.state)
	}

	first, last := &fakeLayer{name: "first"}, &fakeLayer{name: "last"}
	reg3 := NewRegistry()
	reg3.Register(first)
	reg3.Register(last)
	if err := reg3.Load(bytes.NewReader(buf.Bytes())); err != nil || string(first.state) != "x" || string(last.state) != "y" {
		t.Fatalf("err = %v, state %q/%q: want both sections applied", err, first.state, last.state)
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&fakeLayer{name: "s", state: []byte("old")})
	defer func() {
		if recover() == nil {
			t.Fatal("a second owner of section s was registered")
		}
		if got := reg.Sections(); len(got) != 1 || got[0] != "s" {
			t.Fatalf("sections = %v", got)
		}
	}()
	reg.Register(&fakeLayer{name: "s", state: []byte("new")})
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read %q, %v", got, err)
	}

	// A failed write must leave the published file untouched and no temp
	// residue behind.
	boom := errors.New("boom")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, _ = w.Write([]byte("torn"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("after failed write: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the snapshot", len(entries))
	}
}

// TestEnvelopeCompresses pins that the envelope actually gzips: a
// compressible payload produces a smaller envelope than its own length, and
// truncating it just before the gzip trailer yields ErrTruncated.
func TestEnvelopeCompresses(t *testing.T) {
	a := &fakeLayer{name: "a", state: bytes.Repeat([]byte("turbo"), 4096)}
	reg := NewRegistry()
	reg.Register(a)

	var env bytes.Buffer
	if err := reg.Capture(&env); err != nil {
		t.Fatal(err)
	}
	if env.Len() >= len(a.state)/4 {
		t.Fatalf("envelope of %d bytes for a %d-byte payload: not compressed", env.Len(), len(a.state))
	}
	a2 := &fakeLayer{name: "a"}
	reg2 := NewRegistry()
	reg2.Register(a2)
	if err := reg2.Load(bytes.NewReader(env.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a2.state, a.state) {
		t.Fatal("round-trip corrupted the payload")
	}
	// Cut just before the gzip trailer: the end marker may still decode,
	// but the missing checksum must surface as truncation.
	cut := env.Bytes()[:env.Len()-4]
	if err := reg2.Load(bytes.NewReader(cut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailer-cut envelope: err = %v, want ErrTruncated", err)
	}
}
