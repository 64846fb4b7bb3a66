package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// newTestFile opens a file store in a fresh temp dir with every mutation
// fsync'd (crash tests depend on acknowledged writes being on disk).
func newTestFile(t *testing.T, cfg FileConfig) *File {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = 1
	}
	f, err := NewFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFileSurvivesReopen is the core durability property: a clean
// close/reopen round-trips every entry with its metadata.
func TestFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	f := newTestFile(t, FileConfig{Dir: dir})
	for i := 0; i < 50; i++ {
		if err := f.SetWeighted("ns", fmt.Sprintf("k%d", i), i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Delete("ns", "k7")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := NewFile(FileConfig{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var out int
	for i := 0; i < 50; i++ {
		ok, _ := g.Get("ns", fmt.Sprintf("k%d", i), &out)
		if i == 7 {
			if ok {
				t.Fatal("deleted key resurrected by replay")
			}
			continue
		}
		if !ok || out != i {
			t.Fatalf("replayed k%d = %d, %v", i, out, ok)
		}
	}
	// Metadata replays too: the weight survives.
	if w := g.ExportNamespace("ns")["k9"].Weight; w != 9 {
		t.Fatalf("weight lost across restart: %g", w)
	}
}

// TestFileTornTailTruncated pins crash recovery: a half-written record at
// the log tail is dropped, every record before it survives, and the
// store appends cleanly afterwards.
func TestFileTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	f := newTestFile(t, FileConfig{Dir: dir})
	for i := 0; i < 10; i++ {
		if err := f.Set("ns", fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Simulate a crash mid-append: garbage partial record at the tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	fh, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0xAB, 0xCD, 0xEF}); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	g, err := NewFile(FileConfig{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer g.Close()
	var out int
	for i := 0; i < 10; i++ {
		if ok, _ := g.Get("ns", fmt.Sprintf("k%d", i), &out); !ok || out != i {
			t.Fatalf("k%d lost to torn-tail truncation", i)
		}
	}
	// The store still appends and the new record survives another reopen.
	if err := g.Set("ns", "after", 99); err != nil {
		t.Fatal(err)
	}
	g.Close()
	h, err := NewFile(FileConfig{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if ok, _ := h.Get("ns", "after", &out); !ok || out != 99 {
		t.Fatal("post-recovery append lost")
	}
}

// TestFileEarlySegmentCorruptionRefuses pins the flip side: corruption
// anywhere but the last segment is not a torn tail and must refuse to
// open rather than silently drop acknowledged writes.
func TestFileEarlySegmentCorruptionRefuses(t *testing.T) {
	dir := t.TempDir()
	f := newTestFile(t, FileConfig{Dir: dir, SegmentBytes: 256})
	// Small segments force several rotations.
	for i := 0; i < 40; i++ {
		if err := f.Set("ns", fmt.Sprintf("key%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) < 2 {
		t.Fatalf("wanted several segments, got %v", segs)
	}
	// Flip a byte in the middle of the FIRST segment.
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFile(FileConfig{Dir: dir}); err == nil {
		t.Fatal("open succeeded over early-segment corruption")
	}
}

// TestFileCompaction checks compaction preserves the live state, shrinks
// the log to one snapshot plus the active segment, and stays replayable.
func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	f := newTestFile(t, FileConfig{Dir: dir})
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			_ = f.Set("ns", fmt.Sprintf("k%d", i), round*100+i)
		}
	}
	f.Delete("ns", "k3")
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 2 { // snapshot + fresh active
		t.Fatalf("segments after compaction = %v", segs)
	}
	var out int
	for i := 0; i < 10; i++ {
		ok, _ := f.Get("ns", fmt.Sprintf("k%d", i), &out)
		if i == 3 {
			if ok {
				t.Fatal("tombstoned key resurrected by compaction")
			}
			continue
		}
		if !ok || out != 1900+i {
			t.Fatalf("post-compaction k%d = %d, %v", i, out, ok)
		}
	}
	f.Close()
	g, err := NewFile(FileConfig{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if ok, _ := g.Get("ns", "k5", &out); !ok || out != 1905 {
		t.Fatal("compacted log did not replay")
	}
	if ok, _ := g.Get("ns", "k3", &out); ok {
		t.Fatal("tombstoned key resurrected by replay of compacted log")
	}
}

// TestFileAutoCompaction checks rotation triggers compaction once the
// log is dominated by superseded records.
func TestFileAutoCompaction(t *testing.T) {
	f := newTestFile(t, FileConfig{SegmentBytes: 2048, SyncEvery: 64})
	for i := 0; i < 2000; i++ {
		_ = f.Set("ns", "hot", i) // one key rewritten over and over
	}
	f.statsMu.Lock()
	compactions := f.compactions
	f.statsMu.Unlock()
	if compactions == 0 {
		t.Fatal("no automatic compaction under churn")
	}
	var out int
	if ok, _ := f.Get("ns", "hot", &out); !ok || out != 1999 {
		t.Fatalf("hot = %d, %v", out, ok)
	}
}

// TestFileLockExcludesSecondOpener pins the single-appender guard.
func TestFileLockExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	f := newTestFile(t, FileConfig{Dir: dir})
	if _, err := NewFile(FileConfig{Dir: dir}); err == nil {
		t.Fatal("second opener acquired a locked store")
	}
	f.Close()
	g, err := NewFile(FileConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	g.Close()
}

// legacyRecord frames one set record the way builds with guards and
// leases wrote it: a pin flag in payload byte 1, the lease deadline and ttl
// in bytes 10–26.
func legacyRecord(t *testing.T, key string, value any, flags byte, weight float64, deadline, ttl int64) []byte {
	t.Helper()
	val, err := EncodeValue("", key, value)
	if err != nil {
		t.Fatal(err)
	}
	plen := fileRecHeader + len(key) + len(val)
	buf := make([]byte, 4+plen+4)
	binary.LittleEndian.PutUint32(buf, uint32(plen))
	p := buf[4 : 4+plen]
	p[0], p[1] = fileOpSet, flags
	binary.LittleEndian.PutUint64(p[2:], math.Float64bits(weight))
	binary.LittleEndian.PutUint64(p[10:], uint64(deadline))
	binary.LittleEndian.PutUint64(p[18:], uint64(ttl))
	binary.LittleEndian.PutUint32(p[26:], uint32(len(key)))
	binary.LittleEndian.PutUint32(p[30:], uint32(len(val)))
	copy(p[fileRecHeader:], key)
	copy(p[fileRecHeader+len(key):], val)
	binary.LittleEndian.PutUint32(buf[4+plen:], crc32.ChecksumIEEE(p))
	return buf
}

// TestFileOpensLegacyLog pins the on-disk compatibility promise: a
// directory written by a build that had guards and leases still opens, its
// pinned record and its (long expired) leased record read back as plain
// entries, and the next rewrite of them zeroes the reserved bytes.
func TestFileOpensLegacyLog(t *testing.T) {
	dir := t.TempDir()
	log := append(legacyRecord(t, "ns:guard", "owner", 1, 0, 0, 0),
		legacyRecord(t, "ns:lease", "holder", 1, 2.5, 400, 100)...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), log, 0o644); err != nil {
		t.Fatal(err)
	}
	f := newTestFile(t, FileConfig{Dir: dir})
	for k, want := range map[string]string{"guard": "owner", "lease": "holder"} {
		var got string
		if ok, err := f.Get("ns", k, &got); !ok || err != nil || got != want {
			t.Fatalf("legacy %s = %q, %v, %v", k, got, ok, err)
		}
	}
	if keys := f.Keys("ns"); len(keys) != 2 {
		t.Fatalf("Keys = %v, want both legacy records", keys)
	}
	if exp := f.ExportNamespace("ns"); len(exp) != 2 || exp["lease"].Weight != 2.5 {
		t.Fatalf("export of the legacy records = %+v", exp)
	}
	// Plain entries: an overwrite is not refused, a delete is not guarded.
	if err := f.Set("ns", "guard", "rival"); err != nil {
		t.Fatal(err)
	}
	if !f.Delete("ns", "guard") {
		t.Fatal("legacy guard not deletable")
	}
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(f.segNum-1)))
	if err != nil {
		t.Fatal(err)
	}
	rec, n, ok := parseRecord(raw)
	if !ok || n != len(raw) || rec.key != "ns:lease" || rec.weight != 2.5 {
		t.Fatalf("compacted segment holds %+v (%d of %d bytes, ok=%v)", rec, n, len(raw), ok)
	}
	if p := raw[4:]; p[1] != 0 || !bytes.Equal(p[10:26], make([]byte, 16)) {
		t.Fatalf("reserved bytes rewritten as %x / %x, want zero", p[1], p[10:26])
	}
}

func TestFileConcurrent(t *testing.T) {
	f := newTestFile(t, FileConfig{SyncEvery: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out int
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%50)
				switch i % 4 {
				case 0:
					_ = f.SetWeighted("ns", k, i, float64(i))
				case 1:
					_, _ = f.Get("ns", k, &out)
				case 2:
					f.CompareDelete("ns", k, i-2)
				default:
					f.Delete("ns", k)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestFileCrashMidCheckpointReplay pins a store property: a multi-key
// write sequence (sections, then the manifest that names them) interrupted
// anywhere leaves every acknowledged, synced Set readable after an unclean
// reopen.
func TestFileCrashMidCheckpointReplay(t *testing.T) {
	dir := t.TempDir()
	f := newTestFile(t, FileConfig{Dir: dir})
	// Checkpoint 1: two sections, then a manifest.
	_ = f.Set("snap", "layer/a", []byte("alpha-v1"))
	_ = f.Set("snap", "layer/b", []byte("beta-v1"))
	_ = f.Set("snap", "!manifest", []string{"layer/a", "layer/b"})
	// Checkpoint 2 "crashes" between the section writes and the manifest
	// write: one section updated, manifest never written, no clean Close.
	_ = f.Set("snap", "layer/a", []byte("alpha-v2"))
	_ = f.Sync()

	// Simulate the crash: reopen the directory without Close (drop the
	// lock by force, as the dead process's exit would).
	syscallUnlock(t, f)
	g, err := NewFile(FileConfig{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	defer g.Close()

	// The previous manifest and every section it names are readable.
	var manifest []string
	if ok, err := g.Get("snap", "!manifest", &manifest); err != nil || !ok {
		t.Fatalf("manifest lost: %v %v", ok, err)
	}
	for _, name := range manifest {
		var payload []byte
		if ok, err := g.Get("snap", name, &payload); err != nil || !ok {
			t.Fatalf("section %q named by the manifest is unreadable: %v %v", name, ok, err)
		}
	}
	// The torn checkpoint's acknowledged section write also survived.
	var a []byte
	if ok, _ := g.Get("snap", "layer/a", &a); !ok || string(a) != "alpha-v2" {
		t.Fatalf("layer/a = %q, %v", a, ok)
	}
}

// syscallUnlock force-releases a store's flock the way a process death
// would, without running Close's orderly shutdown.
func syscallUnlock(t *testing.T, f *File) {
	t.Helper()
	if err := f.lock.Close(); err != nil {
		t.Fatal(err)
	}
	f.seg.Close()
}
