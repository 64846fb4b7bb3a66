// The persistent backend: a segmented append-only log with a full
// in-memory index — the "persistent, consistent and durable storage
// service" the paper says can replace its Redis tier (§5).
//
// Layout. A directory of numbered segment files (seg-000001.log, ...).
// Every mutation appends one length-prefixed, CRC-guarded record to the
// highest-numbered segment; reads never touch disk (the index holds the
// live value bytes). Writes are buffered and fsync'd in batches
// (SyncEvery mutations per fsync, 1 = fsync everything); an explicit
// Sync flushes the tail on demand, and Close syncs before releasing the
// directory lock.
//
// Recovery. Open replays every segment in ascending order, later records
// winning. A torn tail — a crash mid-append leaving a half-written
// record — is tolerated in the LAST segment only: the segment is
// truncated at the last whole record and appending resumes there. A CRC
// or framing error in any earlier segment is real corruption and refuses
// to open (silently dropping acknowledged, fsync'd writes would be far
// worse than failing loudly).
//
// Compaction. When the log holds many superseded records, Compact writes
// the entire live index as one fresh segment and deletes every older
// one. Correctness falls out of replay order: the snapshot segment is
// numbered above everything it replaces, so replay after a crash at any
// point sees either the old segments, or the old segments plus a
// snapshot that overrides them, or the snapshot alone. Rotation triggers
// compaction automatically once appended records outnumber live entries
// 4:1.
//
// Sharing. One process owns a store directory at a time, enforced with
// an exclusive flock on dir/LOCK — the log format has a single appender
// by construction.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// FileConfig parameterizes a persistent file-backed store.
type FileConfig struct {
	// Dir is the store directory (created if absent). Required.
	Dir string
	// SegmentBytes caps a segment file before rotation; <= 0 defaults to
	// 4 MiB.
	SegmentBytes int
	// SyncEvery is how many mutations may be acknowledged between
	// fsyncs; 1 syncs every mutation, <= 0 defaults to 64. A crash loses
	// at most the unsynced tail — which replay's torn-tail handling
	// absorbs.
	SyncEvery int
}

// fill applies defaults.
func (c *FileConfig) fill() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 64
	}
}

// log record opcodes.
const (
	fileOpSet    = 1
	fileOpDelete = 2
)

// fileRecHeader is the fixed-size prefix of a record payload:
// op(1) reserved(1) weight(8) reserved(16) klen(4) vlen(4). The reserved
// bytes held a pin flag and a lease deadline and ttl in older builds; they
// are written zero and ignored on replay, so an old directory still opens
// and its guard and lease records read back as plain entries.
const fileRecHeader = 1 + 1 + 8 + 16 + 4 + 4

// fileEntry is one live index entry (same metadata the other backend
// keeps).
type fileEntry struct {
	val    []byte
	weight float64
}

// File is the persistent file-backed Backend. Safe for concurrent use:
// one mutex serializes the index and the single log appender.
type File struct {
	cfg  FileConfig
	lock *os.File // flock'd dir/LOCK

	mu       sync.Mutex
	index    map[string]*fileEntry
	seg      *os.File // active segment (highest number)
	segNum   int
	segSize  int
	unsynced int   // mutations acknowledged since the last fsync
	logged   int64 // records appended since the last compaction
	version  uint64

	statsMu                     sync.Mutex
	hits, misses, sets, deletes int64
	decodeErrors                int64
	compactions                 int64
}

// compile-time check: File is a store.Backend.
var _ Backend = (*File)(nil)

// NewFile opens (or creates) a file store in cfg.Dir, replaying existing
// segments into the index. The directory is locked exclusively for the
// life of the store; a second opener fails fast instead of corrupting
// the log.
func NewFile(cfg FileConfig) (*File, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: file backend needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", cfg.Dir, err)
	}
	lock, err := os.OpenFile(filepath.Join(cfg.Dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock file: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is owned by another process: %w", cfg.Dir, err)
	}
	f := &File{
		cfg:   cfg,
		lock:  lock,
		index: make(map[string]*fileEntry),
	}
	if err := f.replay(); err != nil {
		syscall.Flock(int(lock.Fd()), syscall.LOCK_UN)
		lock.Close()
		return nil, err
	}
	return f, nil
}

// segName formats a segment file name; lexical order = numeric order.
func segName(n int) string { return fmt.Sprintf("seg-%06d.log", n) }

// segments lists existing segment numbers in ascending order.
func (f *File) segments() ([]int, error) {
	ents, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", f.cfg.Dir, err)
	}
	var nums []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.log", &n); err == nil {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums, nil
}

// replay rebuilds the index from every segment and opens the active one
// for appending, truncating a torn tail in the last segment.
func (f *File) replay() error {
	nums, err := f.segments()
	if err != nil {
		return err
	}
	for i, n := range nums {
		last := i == len(nums)-1
		if err := f.replaySegment(n, last); err != nil {
			return err
		}
	}
	if len(nums) == 0 {
		return f.openSegment(1)
	}
	active := nums[len(nums)-1]
	seg, err := os.OpenFile(filepath.Join(f.cfg.Dir, segName(active)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen active segment: %w", err)
	}
	st, err := seg.Stat()
	if err != nil {
		seg.Close()
		return err
	}
	f.seg, f.segNum, f.segSize = seg, active, int(st.Size())
	return nil
}

// replaySegment applies one segment's records to the index. In the last
// segment a framing or CRC failure marks a torn tail: the file is
// truncated at the last whole record. Anywhere else it is corruption.
func (f *File) replaySegment(n int, last bool) error {
	path := filepath.Join(f.cfg.Dir, segName(n))
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: read segment %d: %w", n, err)
	}
	off := 0
	for off < len(raw) {
		rec, recLen, ok := parseRecord(raw[off:])
		if !ok {
			if !last {
				return fmt.Errorf("store: segment %d corrupt at offset %d", n, off)
			}
			// Torn tail: drop the partial record and everything after it.
			if err := os.Truncate(path, int64(off)); err != nil {
				return fmt.Errorf("store: truncate torn tail of segment %d: %w", n, err)
			}
			break
		}
		f.applyRecord(rec)
		f.logged++
		off += recLen
	}
	return nil
}

// record is one decoded log record.
type record struct {
	op     byte
	weight float64
	key    string
	val    []byte
}

// parseRecord decodes the record at the head of raw, returning the
// decoded record, its total on-disk length, and whether a whole, valid
// record was present.
func parseRecord(raw []byte) (record, int, bool) {
	if len(raw) < 4 {
		return record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(raw))
	total := 4 + plen + 4
	if plen < fileRecHeader || len(raw) < total {
		return record{}, 0, false
	}
	payload := raw[4 : 4+plen]
	want := binary.LittleEndian.Uint32(raw[4+plen:])
	if crc32.ChecksumIEEE(payload) != want {
		return record{}, 0, false
	}
	var r record
	r.op = payload[0]
	r.weight = math.Float64frombits(binary.LittleEndian.Uint64(payload[2:]))
	klen := int(binary.LittleEndian.Uint32(payload[26:]))
	vlen := int(binary.LittleEndian.Uint32(payload[30:]))
	if fileRecHeader+klen+vlen != plen {
		return record{}, 0, false
	}
	r.key = string(payload[fileRecHeader : fileRecHeader+klen])
	r.val = append([]byte(nil), payload[fileRecHeader+klen:]...)
	if r.op != fileOpSet && r.op != fileOpDelete {
		return record{}, 0, false
	}
	return r, total, true
}

// applyRecord folds one replayed record into the index.
func (f *File) applyRecord(r record) {
	switch r.op {
	case fileOpSet:
		f.index[r.key] = &fileEntry{val: r.val, weight: r.weight}
	case fileOpDelete:
		delete(f.index, r.key)
	}
}

// openSegment creates and activates segment n. The caller holds f.mu (or
// is inside construction).
func (f *File) openSegment(n int) error {
	seg, err := os.OpenFile(filepath.Join(f.cfg.Dir, segName(n)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment %d: %w", n, err)
	}
	if f.seg != nil {
		f.seg.Sync()
		f.seg.Close()
	}
	f.seg, f.segNum, f.segSize = seg, n, 0
	f.syncDir()
	return nil
}

// syncDir fsyncs the store directory so created/deleted segment files
// survive a crash. Best effort: some filesystems refuse directory syncs.
func (f *File) syncDir() {
	if d, err := os.Open(f.cfg.Dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// appendLocked encodes and appends one record, then applies the batched
// fsync policy, rotating and compacting as needed. The caller holds f.mu.
func (f *File) appendLocked(op byte, key string, val []byte, weight float64) error {
	if err := f.appendRaw(op, key, val, weight); err != nil {
		return err
	}
	f.unsynced++
	if f.unsynced >= f.cfg.SyncEvery {
		if err := f.seg.Sync(); err != nil {
			return fmt.Errorf("store: fsync: %w", err)
		}
		f.unsynced = 0
	}
	if f.segSize >= f.cfg.SegmentBytes {
		if f.logged > 4*int64(len(f.index)) {
			return f.compactLocked()
		}
		return f.openSegment(f.segNum + 1)
	}
	return nil
}

// Sync flushes and fsyncs the log tail.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.seg.Sync(); err != nil {
		return err
	}
	f.unsynced = 0
	return nil
}

// Close syncs the log and releases the directory lock. The store must
// not be used afterwards.
func (f *File) Close() error {
	f.mu.Lock()
	err := f.seg.Sync()
	f.seg.Close()
	f.mu.Unlock()
	syscall.Flock(int(f.lock.Fd()), syscall.LOCK_UN)
	f.lock.Close()
	return err
}

// Compact rewrites the live index as one fresh segment and deletes every
// older one, bounding the log at the live data size.
func (f *File) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactLocked()
}

// compactLocked writes the snapshot segment (numbered above the current
// active one), fsyncs it, activates a new empty segment above it, and
// only then deletes the old segments — replay at any crash point sees a
// consistent prefix. The caller holds f.mu.
func (f *File) compactLocked() error {
	old, err := f.segments()
	if err != nil {
		return err
	}
	if err := f.seg.Sync(); err != nil {
		return err
	}
	snapNum := f.segNum + 1
	if err := f.openSegment(snapNum); err != nil {
		return err
	}
	keys := make([]string, 0, len(f.index))
	for k := range f.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f.logged = 0
	for _, k := range keys {
		e := f.index[k]
		if err := f.appendRaw(fileOpSet, k, e.val, e.weight); err != nil {
			return err
		}
	}
	if err := f.seg.Sync(); err != nil {
		return err
	}
	f.unsynced = 0
	if err := f.openSegment(snapNum + 1); err != nil {
		return err
	}
	for _, n := range old {
		if n < snapNum {
			os.Remove(filepath.Join(f.cfg.Dir, segName(n)))
		}
	}
	f.syncDir()
	f.statsMu.Lock()
	f.compactions++
	f.statsMu.Unlock()
	return nil
}

// appendRaw encodes and writes one record with no fsync/rotation policy
// (compaction drives those itself). The caller holds f.mu.
func (f *File) appendRaw(op byte, key string, val []byte, weight float64) error {
	plen := fileRecHeader + len(key) + len(val)
	buf := make([]byte, 4+plen+4)
	binary.LittleEndian.PutUint32(buf, uint32(plen))
	p := buf[4:]
	p[0] = op
	binary.LittleEndian.PutUint64(p[2:], math.Float64bits(weight))
	binary.LittleEndian.PutUint32(p[26:], uint32(len(key)))
	binary.LittleEndian.PutUint32(p[30:], uint32(len(val)))
	copy(p[fileRecHeader:], key)
	copy(p[fileRecHeader+len(key):], val)
	binary.LittleEndian.PutUint32(buf[4+plen:], crc32.ChecksumIEEE(buf[4:4+plen]))
	if _, err := f.seg.Write(buf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	f.segSize += len(buf)
	f.logged++
	return nil
}

// fullKey joins a namespace and key into the log's record key.
func fullKey(ns, k string) string { return ns + ":" + k }

// Get loads ns:k into out. Undecodable bytes are a poisoned entry —
// deleted, counted, reported as a miss plus the error.
func (f *File) Get(ns, k string, out any) (bool, error) {
	full := fullKey(ns, k)
	f.mu.Lock()
	e, ok := f.index[full]
	var raw []byte
	if ok {
		raw = e.val
	}
	f.mu.Unlock()
	if !ok {
		f.count(&f.misses)
		return false, nil
	}
	if err := DecodeValue(ns, k, raw, out); err != nil {
		f.mu.Lock()
		if e2, ok2 := f.index[full]; ok2 && string(e2.val) == string(raw) {
			delete(f.index, full)
			_ = f.appendLocked(fileOpDelete, full, nil, 0)
			f.version++
		}
		f.mu.Unlock()
		f.count(&f.decodeErrors)
		f.count(&f.misses)
		return false, err
	}
	f.count(&f.hits)
	return true, nil
}

// Set stores value under ns:k with zero eviction weight.
func (f *File) Set(ns, k string, value any) error {
	return f.SetWeighted(ns, k, value, 0)
}

// SetWeighted stores value under ns:k. The file store never evicts; the
// weight is durable metadata that exports carry into bounded backends.
func (f *File) SetWeighted(ns, k string, value any, weight float64) error {
	raw, err := EncodeValue(ns, k, value)
	if err != nil {
		return err
	}
	full := fullKey(ns, k)
	f.mu.Lock()
	f.index[full] = &fileEntry{val: raw, weight: weight}
	err = f.appendLocked(fileOpSet, full, raw, weight)
	f.version++
	f.mu.Unlock()
	if err != nil {
		return err
	}
	f.count(&f.sets)
	return nil
}

// Delete removes ns:k, reporting whether it existed.
func (f *File) Delete(ns, k string) bool {
	full := fullKey(ns, k)
	f.mu.Lock()
	_, ok := f.index[full]
	if ok {
		delete(f.index, full)
		_ = f.appendLocked(fileOpDelete, full, nil, 0)
		f.version++
	}
	f.mu.Unlock()
	if ok {
		f.count(&f.deletes)
	}
	return ok
}

// CompareDelete removes ns:k only if its stored bytes equal the encoding
// of expect.
func (f *File) CompareDelete(ns, k string, expect any) bool {
	want, err := EncodeValue(ns, k, expect)
	if err != nil {
		return false
	}
	full := fullKey(ns, k)
	f.mu.Lock()
	e, ok := f.index[full]
	if ok && string(e.val) == string(want) {
		delete(f.index, full)
		_ = f.appendLocked(fileOpDelete, full, nil, 0)
		f.version++
	} else {
		ok = false
	}
	f.mu.Unlock()
	if ok {
		f.count(&f.deletes)
	}
	return ok
}

// Keys returns the sorted keys of a namespace.
func (f *File) Keys(ns string) []string {
	prefix := ns + ":"
	var out []string
	f.mu.Lock()
	for k := range f.index {
		if strings.HasPrefix(k, prefix) {
			out = append(out, strings.TrimPrefix(k, prefix))
		}
	}
	f.mu.Unlock()
	sort.Strings(out)
	return out
}

// Len returns the total number of live keys.
func (f *File) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.index)
}

// Version increments on every mutation.
func (f *File) Version() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// MemoryBytes returns the resident index size (keys + values) — the log
// on disk is additionally bounded by compaction.
func (f *File) MemoryBytes() int {
	total := 0
	f.mu.Lock()
	for k, e := range f.index {
		total += len(k) + len(e.val)
	}
	f.mu.Unlock()
	return total
}

// ExportNamespace returns the stored bytes and eviction weight of every
// key in ns.
func (f *File) ExportNamespace(ns string) map[string]Exported {
	prefix := ns + ":"
	out := make(map[string]Exported)
	f.mu.Lock()
	for k, e := range f.index {
		if strings.HasPrefix(k, prefix) {
			out[strings.TrimPrefix(k, prefix)] = Exported{Val: append([]byte(nil), e.val...), Weight: e.weight}
		}
	}
	f.mu.Unlock()
	return out
}

// ImportNamespace replaces the contents of ns with previously-exported
// entries (weights round-trip), logging the replacement so it is durable
// like any other mutation.
func (f *File) ImportNamespace(ns string, data map[string]Exported) {
	prefix := ns + ":"
	f.mu.Lock()
	for k := range f.index {
		if strings.HasPrefix(k, prefix) {
			delete(f.index, k)
			_ = f.appendLocked(fileOpDelete, k, nil, 0)
		}
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := data[k]
		full := prefix + k
		val := append([]byte(nil), v.Val...)
		f.index[full] = &fileEntry{val: val, weight: v.Weight}
		_ = f.appendLocked(fileOpSet, full, val, v.Weight)
	}
	f.version++
	f.mu.Unlock()
}

// count bumps one stats counter.
func (f *File) count(c *int64) {
	f.statsMu.Lock()
	*c++
	f.statsMu.Unlock()
}

// Stats returns the backend's counters and memory accounting. The file
// store never evicts (compaction is garbage collection of superseded log
// records, not data loss).
func (f *File) Stats() Stats {
	f.statsMu.Lock()
	s := Stats{
		Backend:      "file-log",
		Hits:         f.hits,
		Misses:       f.misses,
		Sets:         f.sets,
		Deletes:      f.deletes,
		DecodeErrors: f.decodeErrors,
	}
	f.statsMu.Unlock()
	s.Entries = f.Len()
	s.Bytes = f.MemoryBytes()
	return s
}
