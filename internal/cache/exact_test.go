package cache

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/store"
)

func dom() *domain.Domain {
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 2},
		domain.Attribute{Name: "b", Card: 3},
	)
}

// newCache builds an exact cache over a private in-memory store, failing the
// test on constructor errors.
func newCache(t *testing.T) *Exact {
	t.Helper()
	c, err := NewExact(store.NewMem(store.MemConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// entries is the number of entries in the cache's store.
func (c *Exact) entries() int { return c.store.Stats().Entries }

// get is Lookup by q's key.
func (c *Exact) get(q *query.Query) (float64, bool) { return c.Lookup(q.KeyWithWindow()) }

// restore stages payload into c and applies it.
func (c *Exact) restore(payload []byte) error {
	apply, err := c.StagePayload(payload)
	if err == nil {
		apply()
	}
	return err
}

// section encodes a cache/session-exact payload by hand: the entry count,
// then each key and its value, in the order given.
func section(keys []string, vals []float64) []byte {
	var e persist.Encoder
	e.PutUvarint(uint64(len(keys)))
	for i, k := range keys {
		e.PutString(k)
		e.PutFloat(vals[i])
	}
	return e.Payload()
}

func TestNilBackendRefused(t *testing.T) {
	if _, err := NewExact(nil); !errors.Is(err, ErrNilBackend) {
		t.Fatalf("NewExact(nil) err = %v, want ErrNilBackend", err)
	}
}

func TestPutGet(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	if _, ok := c.get(q); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(q, 0.42); err != nil {
		t.Fatal(err)
	}
	v, ok := c.get(q)
	if !ok || v != 0.42 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d, %d", hits, misses)
	}
	if c.entries() != 1 {
		t.Fatalf("Len = %d", c.entries())
	}
}

// TestStoredPayloadBytes: an entry's stored payload is its key plus the
// released value's 8 bytes, and nothing else.
func TestStoredPayloadBytes(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(3, 9)
	if err := c.Put(q, 0.5); err != nil {
		t.Fatal(err)
	}
	key := q.KeyWithWindow()
	if st := c.store.Stats(); st.Entries != 1 || st.Bytes != len(key)+8 {
		t.Fatalf("store holds %d entries, %d payload bytes; want 1 entry of %d+8", st.Entries, st.Bytes, len(key))
	}
	if v := c.store.Export()[key]; v != 0.5 {
		t.Fatalf("stored value %v, want 0.5", v)
	}
}

func TestWindowDistinguishesEntries(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	w1 := q.WithWindow(0, 1)
	w2 := q.WithWindow(0, 2)
	_ = c.Put(w1, 0.1)
	if _, ok := c.get(w2); ok {
		t.Fatal("different window hit the same entry")
	}
	if _, ok := c.get(w1); !ok {
		t.Fatal("same window missed")
	}
	// Every one of 32 fills is served: the store is the cache, with no
	// smaller tier in front of it to evict from.
	for i := 0; i < 32; i++ {
		_ = c.Put(q.WithWindow(i, i), float64(i))
	}
	for i := 0; i < 32; i++ {
		if v, ok := c.get(q.WithWindow(i, i)); !ok || v != float64(i) {
			t.Fatalf("window %d after 32 fills: %v %v", i, v, ok)
		}
	}
}

// TestOverwrite: a Put replaces what the key held, even after the old
// bytes were read.
func TestOverwrite(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), nil)
	_ = c.Put(q, 0.1)
	_ = c.Put(q, 0.2)
	v, ok := c.get(q)
	if !ok || v != 0.2 {
		t.Fatalf("overwrite failed: %v %v", v, ok)
	}
	_ = c.Put(q, 0.75)
	if v, ok := c.get(q); !ok || v != 0.75 {
		t.Fatalf("Get after a re-Put = %v, %v, want the new value", v, ok)
	}
	if c.entries() != 1 {
		t.Fatalf("Len after overwrite = %d", c.entries())
	}
}

// release is version v of TestVersionStorm's release: v in both halves of
// the value's bits, so a torn or mixed entry shows. Its float order is v's.
func release(v int) float64 { return math.Float64frombits(uint64(v)<<32 | uint64(v)) }

// TestVersionStorm races one writer's Puts against readers' Lookups over
// a single key. The writer Puts strictly increasing versions of the
// key's release (release(v)); a
// reader never reads a version older than one it read before, nor one
// newer than the writer had begun to Put. The last word goes to a Put
// made once the storm is over: nothing the race left behind may shadow
// it.
func TestVersionStorm(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(0, 0)
	const versions = 2000
	var begun, gets atomic.Int64
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, ok := c.get(q)
				newest := begun.Load()
				gets.Add(1)
				bits := math.Float64bits(got)
				v := int64(bits >> 32)
				if ok && (bits&(1<<32-1) != uint64(v) || v < last || v > newest) {
					t.Errorf("read %#x after version %d, with version %d the newest begun", bits, last, newest)
					return
				}
				if ok {
					last = v
				}
				runtime.Gosched() // hand the writer its turn on a small box
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		seen := gets.Load()
		begun.Store(int64(v))
		if err := c.Put(q, release(v)); err != nil {
			t.Fatal(err)
		}
		// Pace the writer by the readers, or on a small box it finishes
		// before they are scheduled: every fourth version waits for a Get
		// that overlapped or followed its Put.
		for v%4 == 0 && gets.Load() == seen {
			runtime.Gosched()
		}
	}
	close(stop)
	readers.Wait()

	if err := c.Put(q, -1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a first read and a repeat, both from the store
		if v, ok := c.get(q); !ok || v != -1 {
			t.Fatalf("read %d after quiescence = %v, %v, want the last Put", i, v, ok)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := newCache(t)
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := base.WithWindow(i%16, i%16)
				if err := c.Put(q, float64(i%16)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := c.get(q); ok && v != float64(i%16) {
					t.Errorf("got %g for window %d", v, i%16)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHitRateEmpty: an empty cache has counted no lookup, so the hit
// rate its readers derive from Stats (hits over hits plus misses) is 0.
func TestHitRateEmpty(t *testing.T) {
	c := newCache(t)
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("empty cache counted %d hits and %d misses", hits, misses)
	}
}

// TestSnapshotRoundTrip: a section restores every entry into the store
// as an exact hit, and re-captured it is the same bytes, keys sorted,
// which restore the same.
func TestSnapshotRoundTrip(t *testing.T) {
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	var keys []string
	for w := 0; w < 8; w++ {
		keys = append(keys, base.WithWindow(w, w).KeyWithWindow())
	}
	sort.Strings(keys)
	vals := make([]float64, len(keys))
	for i := range vals {
		vals[i] = 0.25
	}
	payload := section(keys, vals)
	c := newCache(t)
	if err := c.restore(payload); err != nil {
		t.Fatal(err)
	}
	again := c.SnapshotPayload()
	if string(again) != string(payload) {
		t.Fatalf("re-capture differs from the restored section:\n%x\n%x", again, payload)
	}
	c2 := newCache(t)
	if err := c2.restore(again); err != nil {
		t.Fatal(err)
	}
	for _, cc := range []*Exact{c, c2} {
		if cc.entries() != 8 {
			t.Fatalf("restored %d entries, want 8", cc.entries())
		}
		for w := 0; w < 8; w++ {
			v, ok := cc.get(base.WithWindow(w, w))
			if !ok || v != 0.25 {
				t.Fatalf("restored window %d: %v %v, want an exact hit", w, v, ok)
			}
		}
	}
}

// refusingBackend is a store that refuses every Set of one key.
type refusingBackend struct {
	store.Backend
	refuse string
}

func (b refusingBackend) Set(k string, v float64) error {
	if k == b.refuse {
		return errors.New("refused")
	}
	return b.Backend.Set(k, v)
}

// TestRestoreRefusedSetIsEviction: an entry the store refuses while a
// staged section applies is evicted on arrival, as a refused fill on the
// serving path is — a miss — and the apply goes on with the rest.
func TestRestoreRefusedSetIsEviction(t *testing.T) {
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	keys := []string{base.WithWindow(0, 0).KeyWithWindow(), base.WithWindow(1, 1).KeyWithWindow(), base.WithWindow(2, 2).KeyWithWindow()}
	sort.Strings(keys)
	c, err := NewExact(refusingBackend{Backend: store.NewMem(store.MemConfig{}), refuse: keys[1]})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.restore(section(keys, []float64{0.25, 0.25, 0.25})); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, ok := c.Lookup(k); ok != (i != 1) {
			t.Fatalf("entry %d after the restore: hit %v, want a miss only for the refused one", i, ok)
		}
	}
}

// TestBoundedBackendEviction drives an exact cache over the bounded
// segmented-LRU backend: entries evict under the cap, coldest first, an
// evicted entry is a plain miss (the caller re-executes and re-pays), and
// an entry in use outlives the one-touch fills around it.
func TestBoundedBackendEviction(t *testing.T) {
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	// Room for 8 entries: every key here is the same length.
	be := store.NewMem(store.MemConfig{MaxBytes: 8 * (len(base.WithWindow(0, 0).KeyWithWindow()) + 8)})
	c, err := NewExact(be)
	if err != nil {
		t.Fatal(err)
	}
	// The first fill is read after every later one; nobody reads the rest.
	_ = c.Put(base.WithWindow(0, 0), 0.9)
	for w := 1; w < 32; w++ {
		_ = c.Put(base.WithWindow(w, w), float64(w))
		if v, ok := c.get(base.WithWindow(0, 0)); !ok || v != 0.9 {
			t.Fatalf("fill %d evicted the entry in use: %v %v", w, v, ok)
		}
	}
	if got := be.Stats().Entries; got != 8 {
		t.Fatalf("bounded backend holds %d entries, cap 8", got)
	}
	if got := be.Stats().Evictions; got != 24 {
		t.Fatalf("%d evictions, want the 24 oldest unread fills", got)
	}
	// The oldest unread fills went, each now a miss rather than an error;
	// the newest seven are still there.
	hitsBefore, _ := c.Stats()
	for w := 1; w < 32; w++ {
		if _, ok := c.get(base.WithWindow(w, w)); ok != (w >= 25) {
			t.Fatalf("window %d: hit %v, want a hit only for the 7 newest fills", w, ok)
		}
	}
	if hitsAfter, _ := c.Stats(); hitsAfter-hitsBefore != 7 {
		t.Fatalf("hit accounting off: %d hits for 7 resident", hitsAfter-hitsBefore)
	}
}

// TestRestoreRefusesBadSection: a key whose window header does not decode
// — which no probe would ever build — and a value that is NaN or infinite,
// which no release is, are each refused before the store clears, by an
// error quoting the key, also behind an intact entry, and the cache keeps
// serving what it held.
func TestRestoreRefusesBadSection(t *testing.T) {
	c := newCache(t)
	base := query.MustNew(dom(), map[int][]int{0: {1}})
	for w := 0; w < 4; w++ {
		if err := c.Put(base.WithWindow(w, w), float64(w)); err != nil {
			t.Fatal(err)
		}
	}
	good := base.WithWindow(5, 6).KeyWithWindow()
	six := base.WithWindow(6, 6).KeyWithWindow()
	for name, bad := range map[string]struct {
		keys []string
		vals []float64
	}{
		"garbled key":                 {[]string{"\x07junk"}, []float64{1}},
		"garbled key, after an entry": {[]string{good, "\x01\x09"}, []float64{1, 1}},
		"NaN value":                   {[]string{six}, []float64{math.NaN()}},
		"+Inf value, after an entry":  {[]string{good, six}, []float64{1, math.Inf(1)}},
		"-Inf value":                  {[]string{six}, []float64{math.Inf(-1)}},
	} {
		payload := section(bad.keys, bad.vals)
		key := bad.keys[len(bad.keys)-1]
		if _, err := c.StagePayload(payload); err == nil || !strings.Contains(err.Error(), strconv.Quote(key)) {
			t.Fatalf("%s: StagePayload = %v, want a refusal quoting %q", name, err, key)
		}
		if c.entries() != 4 {
			t.Fatalf("%s: the refused restore left %d entries, want the 4 held", name, c.entries())
		}
		for w := 0; w < 4; w++ {
			if v, ok := c.get(base.WithWindow(w, w)); !ok || v != float64(w) {
				t.Fatalf("%s: window %d after the refusal: %v %v", name, w, v, ok)
			}
		}
	}
}

// edgeValues are releases whose bits a careless encoding would lose: the
// zero's sign, a subnormal, the extremes.
var edgeValues = []float64{0, math.Copysign(0, -1), 0.25, -1.5e-300, math.SmallestNonzeroFloat64, math.MaxFloat64}

// TestEntryCodecRoundTrip: an entry's section encoding — the key's bytes,
// then the release's 8 float bytes, behind the entry count — inverts
// itself bit for bit on the float edge cases, and is exactly that long.
func TestEntryCodecRoundTrip(t *testing.T) {
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	c := newCache(t)
	wire := 1 // the count's varint
	for w, v := range edgeValues {
		if err := c.Put(q.WithWindow(w, w), v); err != nil {
			t.Fatal(err)
		}
		key := q.WithWindow(w, w).KeyWithWindow()
		wire += len(binary.AppendUvarint(nil, uint64(len(key)))) + len(key) + 8
	}
	payload := c.SnapshotPayload()
	if len(payload) != wire {
		t.Fatalf("section is %d bytes, want %d: count, then key and 8 value bytes per entry", len(payload), wire)
	}
	restored := newCache(t)
	if err := restored.restore(payload); err != nil {
		t.Fatal(err)
	}
	for w, want := range edgeValues {
		if got, ok := restored.get(q.WithWindow(w, w)); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window %d: %v, %v; want %v", w, got, ok, want)
		}
	}
}

// TestBackendEntryCodecPath: a release goes through both backends, uncapped
// and capped, bit for bit, and the store holds it as the bare float.
func TestBackendEntryCodecPath(t *testing.T) {
	q := query.MustNew(dom(), map[int][]int{0: {1}})
	for _, cfg := range []store.MemConfig{{}, {MaxBytes: 64 * (1 + 8)}} {
		b := store.NewMem(cfg)
		c, err := NewExact(b)
		if err != nil {
			t.Fatal(err)
		}
		for w, want := range edgeValues {
			if err := c.Put(q.WithWindow(w, w), want); err != nil {
				t.Fatal(err)
			}
		}
		held := b.Export()
		for w, want := range edgeValues {
			key := q.WithWindow(w, w).KeyWithWindow()
			if got, ok := held[key]; !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cap %d, window %d: the store holds %v, %v; want %v", cfg.MaxBytes, w, got, ok, want)
			}
			if got, ok := c.get(q.WithWindow(w, w)); !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cap %d, window %d: %v, %v; want %v", cfg.MaxBytes, w, got, ok, want)
			}
		}
	}
}

// gobEntry is Entry{Value: 0.375, Eps: 0.04, Version: 1}, as the entry
// then was, as encoding/gob wrote it: the value bytes of cache sections
// from before the 9-byte codec.
const gobEntry = "0\x7f\x03\x01\x01\x05Entry\x01\xff\x80\x00\x01\x03\x01\x05Value\x01\b\x00\x01\x03Eps\x01\b\x00\x01\aVersion\x01\x04\x00\x00\x00\x13\xff\x80\x01\xfe\xd8?\x01\xf8{\x14\xaeG\xe1z\xa4?\x01\x02\x00"

// TestEntryCodecRefusesGob: a section whose value is a byte string of an
// older layout — a raw gob stream, as pre-codec snapshots held, the 17
// bytes of an entry that still carried its ε, the 0xE7-tagged 9 bytes of
// the v5 codec — or a value one byte short of or one past the float's 8,
// is refused, and the cache keeps what it held.
func TestEntryCodecRefusesGob(t *testing.T) {
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(0, 2)
	c := newCache(t)
	if err := c.Put(q, 0.5); err != nil {
		t.Fatal(err)
	}
	bits := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.75))
	tagged := append([]byte{0xE7}, bits...)
	withEps := binary.LittleEndian.AppendUint64(append([]byte(nil), tagged...), math.Float64bits(0.2))
	for _, raw := range [][]byte{[]byte(gobEntry), withEps, tagged} {
		var e persist.Encoder
		e.PutUvarint(1)
		e.PutString(q.KeyWithWindow())
		e.PutString(string(raw))
		if _, err := c.StagePayload(e.Payload()); err == nil {
			t.Fatalf("a %d-byte value of an older layout restored", len(raw))
		}
	}
	for _, raw := range [][]byte{bits[:7], append(bits, 0)} {
		var e persist.Encoder
		e.PutUvarint(1)
		e.PutString(q.KeyWithWindow())
		if _, err := c.StagePayload(append(e.Payload(), raw...)); err == nil {
			t.Fatalf("a %d-byte value restored", len(raw))
		}
	}
	if v, ok := c.get(q); !ok || v != 0.5 {
		t.Fatalf("the refused restores lost the held entry: %v %v", v, ok)
	}
}

// TestStagePayloadGobFallback checks there is no gob fallback: a section
// whose value is a raw gob stream, as pre-codec snapshots held, is
// refused, and the cache keeps what it held.
func TestStagePayloadGobFallback(t *testing.T) {
	q := query.MustNew(dom(), map[int][]int{0: {1}}).WithWindow(0, 2)
	c := newCache(t)
	if err := c.Put(q, 0.5); err != nil {
		t.Fatal(err)
	}
	var e persist.Encoder
	e.PutUvarint(1)
	e.PutString(q.KeyWithWindow())
	e.PutString(gobEntry)
	if _, err := c.StagePayload(e.Payload()); err == nil {
		t.Fatal("a gob value restored")
	}
	if v, ok := c.get(q); !ok || v != 0.5 {
		t.Fatalf("the refused restore lost the held entry: %v %v", v, ok)
	}
}
