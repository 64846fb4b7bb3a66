package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fakeLayer is a minimal Snapshotter for envelope tests.
type fakeLayer struct {
	name     string
	state    []byte
	opt      bool
	saveErr  error
	loadErr  error
	quiesced int
	resumed  int
}

func (f *fakeLayer) SnapshotSection() string { return f.name }
func (f *fakeLayer) SnapshotPayload() ([]byte, error) {
	if f.saveErr != nil {
		return nil, f.saveErr
	}
	return f.state, nil
}
func (f *fakeLayer) RestorePayload(p []byte) error {
	if f.loadErr != nil {
		return f.loadErr
	}
	f.state = append([]byte(nil), p...)
	return nil
}
func (f *fakeLayer) SnapshotOptional() bool { return f.opt }
func (f *fakeLayer) Quiesce() func() {
	f.quiesced++
	return func() { f.resumed++ }
}

func TestRoundTrip(t *testing.T) {
	a := &fakeLayer{name: "a", state: []byte("alpha")}
	b := &fakeLayer{name: "b", state: []byte("beta")}
	reg := NewRegistry()
	reg.Register(a)
	reg.Register(b)

	var buf bytes.Buffer
	if err := reg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if a.quiesced != 1 || a.resumed != 1 {
		t.Fatalf("quiesce/resume = %d/%d, want 1/1", a.quiesced, a.resumed)
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

func TestBadVersion(t *testing.T) {
	// Valid magic, version 99.
	input := append([]byte(magic), 0, 0, 0, 99)
	if _, _, err := ReadSections(bytes.NewReader(input)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestTruncated(t *testing.T) {
	a := &fakeLayer{name: "a", state: bytes.Repeat([]byte("x"), 256)}
	reg := NewRegistry()
	reg.Register(a)
	var buf bytes.Buffer
	if err := reg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut anywhere after the header but before the end: typed truncation.
	for _, cut := range []int{len(magic) + 2, len(magic) + 4, len(full) / 2, len(full) - 1} {
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
	if err := reg.Save(&buf); err != nil {
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
	if err := reg.Save(&buf); err != nil {
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
	if err := reg.Save(&buf); err != nil {
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

	// Save-side failures are attributed the same way.
	regSave := NewRegistry()
	regSave.Register(&fakeLayer{name: "bad", saveErr: boom})
	err = regSave.Save(&bytes.Buffer{})
	se = nil
	if !errors.As(err, &se) || se.Section != "bad" {
		t.Fatalf("save err = %v, want SectionError naming \"bad\"", err)
	}
}

// stagingLayer is a fakeLayer that stages: StagePayload refuses with
// stageErr, or returns an apply that counts itself.
type stagingLayer struct {
	fakeLayer
	stageErr error
	applied  int
}

func (s *stagingLayer) StagePayload(p []byte) (func() error, error) {
	if s.stageErr != nil {
		return nil, s.stageErr
	}
	return func() error { s.applied++; return s.fakeLayer.RestorePayload(p) }, nil
}

// TestStagerRefusesBeforeAnyRestore: a Stager registered after a plain
// layer refuses before that layer restores, named by a SectionError; one
// that accepts is restored through its apply.
func TestStagerRefusesBeforeAnyRestore(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&fakeLayer{name: "first", state: []byte("x")})
	reg.Register(&fakeLayer{name: "staged", state: []byte("y")})
	var buf bytes.Buffer
	if err := reg.Save(&buf); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	first := &fakeLayer{name: "first", state: []byte("before")}
	refusing := &stagingLayer{fakeLayer: fakeLayer{name: "staged"}, stageErr: boom}
	reg2 := NewRegistry()
	reg2.Register(first)
	reg2.Register(refusing)
	err := reg2.Load(bytes.NewReader(buf.Bytes()))
	var se *SectionError
	if !errors.As(err, &se) || se.Section != "staged" || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want SectionError naming \"staged\" wrapping boom", err)
	}
	if string(first.state) != "before" {
		t.Fatalf("the earlier section restored %q before the stager refused", first.state)
	}

	accepting := &stagingLayer{fakeLayer: fakeLayer{name: "staged"}}
	reg3 := NewRegistry()
	reg3.Register(&fakeLayer{name: "first"})
	reg3.Register(accepting)
	if err := reg3.Load(bytes.NewReader(buf.Bytes())); err != nil || accepting.applied != 1 || string(accepting.state) != "y" {
		t.Fatalf("err = %v, applied %d, state %q: want the staged apply run once", err, accepting.applied, accepting.state)
	}
}

func TestRegisterReplacesSameSection(t *testing.T) {
	old := &fakeLayer{name: "s", state: []byte("old")}
	neu := &fakeLayer{name: "s", state: []byte("new")}
	reg := NewRegistry()
	reg.Register(&fakeLayer{name: "first", state: []byte("1")})
	reg.Register(old)
	reg.Register(neu)
	if got := reg.Sections(); len(got) != 2 || got[1] != "s" {
		t.Fatalf("sections = %v", got)
	}
	var buf bytes.Buffer
	if err := reg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payloads, _, err := ReadSections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if string(payloads["s"]) != "new" {
		t.Fatalf("section s = %q, want the replacement's payload", payloads["s"])
	}
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

// v1Envelope builds the uncompressed envelope earlier builds wrote: the
// magic, version 1, and a raw gob stream of the named sections plus the
// end marker. No writer emits this format any more; the reader must
// still accept it.
func v1Envelope(t *testing.T, sections ...section) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	if err := binary.Write(&buf, binary.BigEndian, formatV1); err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(&buf)
	for _, s := range append(sections, section{}) {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestV1EnvelopeStillReadable pins the compatibility contract of the v2
// (compressed) format bump: uncompressed v1 envelopes from earlier
// builds round-trip into the same registry.
func TestV1EnvelopeStillReadable(t *testing.T) {
	raw := v1Envelope(t,
		section{Name: "b", Payload: []byte("beta")},
		section{Name: "a", Payload: []byte("alpha")})

	a2 := &fakeLayer{name: "a"}
	b2 := &fakeLayer{name: "b"}
	reg2 := NewRegistry()
	reg2.Register(a2)
	reg2.Register(b2)
	if err := reg2.Load(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if string(a2.state) != "alpha" || string(b2.state) != "beta" {
		t.Fatalf("v1 restored %q/%q", a2.state, b2.state)
	}
}

// TestV2EnvelopeCompresses pins that the current format actually gzips:
// a compressible payload produces a smaller envelope than its v1 form,
// and truncating it anywhere yields ErrTruncated (the trailer check).
func TestV2EnvelopeCompresses(t *testing.T) {
	a := &fakeLayer{name: "a", state: bytes.Repeat([]byte("turbo"), 4096)}
	reg := NewRegistry()
	reg.Register(a)

	v1 := v1Envelope(t, section{Name: "a", Payload: a.state})
	var v2 bytes.Buffer
	if err := reg.Capture(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= len(v1) {
		t.Fatalf("v2 envelope (%d bytes) not smaller than v1 (%d bytes)", v2.Len(), len(v1))
	}
	a2 := &fakeLayer{name: "a"}
	reg2 := NewRegistry()
	reg2.Register(a2)
	if err := reg2.Load(bytes.NewReader(v2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a2.state, a.state) {
		t.Fatal("v2 round-trip corrupted the payload")
	}
	// Cut just before the gzip trailer: the end marker may still decode,
	// but the missing checksum must surface as truncation.
	cut := v2.Bytes()[:v2.Len()-4]
	if err := reg2.Load(bytes.NewReader(cut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailer-cut envelope: err = %v, want ErrTruncated", err)
	}
}
