package store

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fastEntry stands in for cache.Entry (which this package cannot import):
// a fixed 25-byte FastEncoder value, so re-Puts overwrite in place.
type fastEntry struct {
	Value, Eps float64
	Version    int
}

func (e fastEntry) AppendFast(dst []byte) []byte {
	var buf [25]byte
	buf[0] = 0xE7
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(e.Value))
	binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(e.Eps))
	binary.LittleEndian.PutUint64(buf[17:], uint64(int64(e.Version)))
	return append(dst, buf[:]...)
}

func (e *fastEntry) DecodeFast(data []byte) bool {
	if len(data) != 25 || data[0] != 0xE7 {
		return false
	}
	e.Value = math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
	e.Eps = math.Float64frombits(binary.LittleEndian.Uint64(data[9:]))
	e.Version = int(int64(binary.LittleEndian.Uint64(data[17:])))
	return true
}

// num and text stand in for values other than an entry: each encodes
// behind its own tag byte and refuses any other bytes, so reading one type
// as another is the poisoned-entry path.
type (
	num  int
	text string
)

func (n num) AppendFast(dst []byte) []byte {
	return binary.AppendVarint(append(dst, 'n'), int64(n))
}

func (n *num) DecodeFast(data []byte) bool {
	if len(data) < 2 || data[0] != 'n' {
		return false
	}
	v, k := binary.Varint(data[1:])
	if k != len(data)-1 {
		return false
	}
	*n = num(v)
	return true
}

func (s text) AppendFast(dst []byte) []byte { return append(append(dst, 't'), s...) }

func (s *text) DecodeFast(data []byte) bool {
	if len(data) == 0 || data[0] != 't' {
		return false
	}
	*s = text(data[1:])
	return true
}

// oracle is the two stores Mem used to be, kept as the reference the arena
// is checked against: one map entry per key, and — what store.Bounded added
// — a probation and a protected container/list, evicting coldest first.
// Imports go in in key order, as Mem's.
type oracle struct {
	data     map[string]*oracleEntry
	poisoned int64

	// The cap (0 = none) and the policy's state; front = most recent.
	maxBytes        int
	cold, hot       *list.List
	bytes, hotBytes int
	evictions       int64

	// What the run exercised, so a test can tell it was not vacuous.
	hotResized, demotions int
	// And of the index: table doublings, compactions that shrank a table,
	// and eviction or import deletes of a record behind another in its chain.
	doublings, shrinks, chained int
}

type oracleEntry struct {
	key  string
	val  []byte
	elem *list.Element
	hot  bool
}

func newOracle(cfg MemConfig) *oracle {
	return &oracle{
		data:     make(map[string]*oracleEntry),
		maxBytes: cfg.MaxBytes,
		cold:     list.New(), hot: list.New(),
	}
}

func (e *oracleEntry) size() int { return len(e.key) + len(e.val) }

func enc(v FastEncoder) []byte { return v.AppendFast(nil) }

// insert places or replaces an entry and restores the caps.
func (o *oracle) insert(k string, val []byte) {
	if e, ok := o.data[k]; ok {
		if e.hot && len(val) != len(e.val) {
			o.hotResized++
		}
		o.setVal(e, val)
		o.touch(e)
	} else {
		e := &oracleEntry{key: k, val: val}
		e.elem = o.cold.PushFront(e)
		o.data[k] = e
		o.bytes += e.size()
	}
	o.evict()
}

func (o *oracle) setVal(e *oracleEntry, val []byte) {
	o.bytes += len(val) - len(e.val)
	if e.hot {
		o.hotBytes += len(val) - len(e.val)
	}
	e.val = val
}

// touch records a use: probation promotes to protected, protected
// refreshes, and the protected segment demotes its own tail past its share.
func (o *oracle) touch(e *oracleEntry) {
	if e.hot {
		o.hot.MoveToFront(e.elem)
		return
	}
	o.cold.Remove(e.elem)
	e.elem = o.hot.PushFront(e)
	e.hot = true
	o.hotBytes += e.size()
	if o.maxBytes == 0 {
		return
	}
	limit := int(float64(o.maxBytes) * 0.8)
	for o.hotBytes > limit && o.hot.Len() > 1 {
		d := o.hot.Remove(o.hot.Back()).(*oracleEntry)
		d.elem = o.cold.PushFront(d)
		d.hot = false
		o.hotBytes -= d.size()
		o.demotions++
	}
}

func (o *oracle) remove(e *oracleEntry) {
	if e.hot {
		o.hot.Remove(e.elem)
		o.hotBytes -= e.size()
	} else {
		o.cold.Remove(e.elem)
	}
	o.bytes -= e.size()
	delete(o.data, e.key)
}

func (o *oracle) evict() {
	over := func() bool {
		return len(o.data) > 0 && o.maxBytes > 0 && o.bytes > o.maxBytes
	}
	for over() {
		coldest := o.cold.Back()
		if coldest == nil {
			coldest = o.hot.Back()
		}
		o.remove(coldest.Value.(*oracleEntry))
		o.evictions++
	}
}

// get mirrors Get's touch; the caller reports a value that would not
// decode through poison.
func (o *oracle) get(k string) ([]byte, bool) {
	e, ok := o.data[k]
	if !ok {
		return nil, false
	}
	o.touch(e)
	return e.val, true
}

func (o *oracle) poison(k string) {
	o.remove(o.data[k])
	o.poisoned++
}

func (o *oracle) compareDelete(k string, want []byte) bool {
	e, ok := o.data[k]
	if !ok || !bytes.Equal(e.val, want) {
		return false
	}
	o.remove(e)
	return true
}

func (o *oracle) export() map[string][]byte {
	out := make(map[string][]byte)
	for k, e := range o.data {
		out[k] = e.val
	}
	return out
}

// imp is Import: the store emptied, then data inserted in key order.
func (o *oracle) imp(data map[string][]byte) {
	for _, e := range o.data {
		o.remove(e)
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o.insert(k, data[k])
	}
}

// order lists a segment's keys, most recent first.
func (o *oracle) order(seg *list.List) []string {
	var out []string
	for elem := seg.Front(); elem != nil; elem = elem.Next() {
		out = append(out, elem.Value.(*oracleEntry).key)
	}
	return out
}

// order lists a segment's keys, most recent first, checking the links
// both ways and the hot bit on the way.
func (s *Mem) order(t *testing.T, seg lruList, hot bool) []string {
	t.Helper()
	var out []string
	newer := uint32(noOff)
	for off := seg.head; off != noOff; {
		r := s.at(off)
		if l := r.lru(); l.newer() != newer || l.hot() != hot {
			t.Fatalf("record %d: newer link %d (want %d), hot %v (want %v)", off, l.newer(), newer, l.hot(), hot)
		}
		out = append(out, string(r.key()))
		newer, off = off, r.lru().older()
	}
	if newer != seg.tail {
		t.Fatalf("segment tail %d, last record reached %d", seg.tail, newer)
	}
	return out
}

// TestModel drives random operation sequences against the arena store and
// the oracle and demands identical answers from every call — and, from a
// capped store, the identical victim at every eviction: after each step
// both LRU segments must list the same keys in the same order. The chunks
// are 128 bytes, so most strings are oversize, records hop chunks
// constantly and compaction runs every few dozen operations; the
// one-chain runs also force every key into one bucket, and the three-bits
// run leaves eight hashes, which share buckets while a table is small and
// part ways as it doubles.
func TestModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		mask uint64
		cfg  MemConfig
	}{
		{"hashed", ^uint64(0), MemConfig{}},
		{"one-chain", 0, MemConfig{}},
		{"three-bits", 7, MemConfig{}},
		{"capped/bytes-only", ^uint64(0), MemConfig{MaxBytes: 800}},
		{"capped/one-chain", 0, MemConfig{MaxBytes: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen oracle
			for seed := int64(1); seed <= 4; seed++ {
				o := runModel(t, seed, tc.mask, tc.cfg)
				seen.evictions += o.evictions
				seen.hotResized += o.hotResized
				seen.demotions += o.demotions
				seen.doublings += o.doublings
				seen.shrinks += o.shrinks
				seen.chained += o.chained
			}
			t.Logf("%d table doublings, %d shrinking compactions, %d chained unlinks", seen.doublings, seen.shrinks, seen.chained)
			// Only eviction looks a record's chain predecessor up.
			if seen.doublings < 3 || seen.shrinks == 0 || (seen.chained == 0) == tc.cfg.capped() {
				t.Fatalf("the runs never exercised part of the index: %d table doublings, %d shrinking compactions, %d chained unlinks",
					seen.doublings, seen.shrinks, seen.chained)
			}
			if !tc.cfg.capped() {
				return
			}
			t.Logf("%d evictions, %d resized hot entries, %d demotions", seen.evictions, seen.hotResized, seen.demotions)
			if seen.evictions == 0 || seen.hotResized == 0 || seen.demotions == 0 {
				t.Fatalf("the runs never exercised part of the policy: %d evictions, %d resized hot entries, %d demotions",
					seen.evictions, seen.hotResized, seen.demotions)
			}
		})
	}
}

// drop removes k whatever it holds: the unguarded delete the caching layer
// never needs, for tests that churn records.
func (s *Mem) drop(k string) bool {
	return s.removeIf(s.hash(k), k, func(rec) bool { return true })
}

func runModel(t *testing.T, seed int64, mask uint64, cfg MemConfig) *oracle {
	rng := rand.New(rand.NewSource(seed))
	s := newMem(cfg, 7, 1<<20)
	s.hashMask = mask
	o := newOracle(cfg)

	// value draws a fastEntry (fixed 25 bytes, overwritten in place) or a
	// text, short or longer than a chunk.
	value := func() FastEncoder {
		switch rng.Intn(4) {
		case 0:
			return text(strings.Repeat("x", rng.Intn(400)))
		case 1:
			return text(fmt.Sprintf("s%d", rng.Intn(5)))
		default:
			return fastEntry{Value: float64(rng.Intn(3)), Eps: 0.5, Version: rng.Intn(2)}
		}
	}
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	compactions := 0
	for step := 0; step < steps; step++ {
		// Half the traffic goes to a few keys, so that a protected segment
		// forms and outgrows its share.
		keys := 120
		if rng.Intn(2) == 0 {
			keys = 18
		}
		k := fmt.Sprintf("key-%d", rng.Intn(keys))
		at := fmt.Sprintf("seed %d step %d %s", seed, step, k)
		before := s.chunks
		tables := len(s.buckets)
		op := rng.Intn(24)
		if op%8 == 6 && op != 6 {
			op = 4 // an import wipes the LRU history: a third as often
		}
		switch op % 8 {
		case 0, 1:
			v := value()
			if err := s.Set(k, v); err != nil {
				t.Fatalf("%s: Set: %v", at, err)
			}
			o.insert(k, enc(v))
		case 2:
			// CompareDelete of what the key holds: a plain delete.
			if e, ok := o.data[k]; ok {
				if !s.CompareDelete(k, rawValue(e.val)) || !o.compareDelete(k, e.val) {
					t.Fatalf("%s: CompareDelete of the stored value refused", at)
				}
			} else if s.CompareDelete(k, value()) {
				t.Fatalf("%s: CompareDelete of an absent key = true", at)
			}
		case 3:
			expect := value()
			if e, ok := o.data[k]; ok && rng.Intn(2) == 0 {
				expect = rawValue(e.val)
			}
			if got, want := s.CompareDelete(k, expect), o.compareDelete(k, enc(expect)); got != want {
				t.Fatalf("%s: CompareDelete = %v; oracle %v", at, got, want)
			}
		case 4, 5:
			// Decode as an entry or as a text; the wrong guess is the
			// poisoned-entry path, which deletes.
			raw, want := o.get(k)
			var e fastEntry
			var str text
			var out FastDecoder = &e
			asEntry := rng.Intn(2) == 0
			if !asEntry {
				out = &str
			}
			got, err := s.Get(k, out)
			var probe fastEntry
			isEntry := want && probe.DecodeFast(raw)
			switch {
			case !want:
				if got || err != nil {
					t.Fatalf("%s: Get = %v, %v; oracle absent", at, got, err)
				}
			case asEntry != isEntry:
				if got || err == nil {
					t.Fatalf("%s: Get of mistyped value = %v, %v; want a decode error", at, got, err)
				}
				o.poison(k)
			default:
				if !got || err != nil {
					t.Fatalf("%s: Get = %v, %v; oracle present", at, got, err)
				}
				reenc := enc(e)
				if !asEntry {
					reenc = enc(str)
				}
				if !bytes.Equal(reenc, raw) {
					t.Fatalf("%s: Get decoded %x, oracle holds %x", at, reenc, raw)
				}
			}
		case 6:
			// Round-trip the store through export and import, keeping a
			// random part of it (none, a quarter of the time).
			data := s.Export()
			if want := o.export(); !reflect.DeepEqual(data, want) {
				t.Fatalf("%s: Export = %v; oracle %v", at, data, want)
			}
			for _, dk := range exportedKeys(s) {
				if rng.Intn(3) == 0 {
					delete(data, dk)
				}
			}
			if rng.Intn(4) == 0 {
				data = nil
			}
			s.Import(data)
			o.imp(data)
		case 7:
			if got, want := s.Export(), o.export(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Export = %v; oracle %v", at, got, want)
			}
		}
		if after := s.chunks; len(before) > 0 && len(after) > 0 && len(after) < len(before) {
			compactions++
		}
		if len(s.buckets) < tables {
			o.shrinks++
		}
		st := s.Stats()
		if st.Entries != len(o.data) || st.Bytes != o.bytes || st.Evictions != o.evictions {
			t.Fatalf("%s: Entries %d Bytes %d Evictions %d; oracle %d %d %d", at,
				st.Entries, st.Bytes, st.Evictions, len(o.data), o.bytes, o.evictions)
		}
		if cfg.capped() {
			if cold, hot := s.order(t, s.cold, false), s.order(t, s.hot, true); !reflect.DeepEqual(cold, o.order(o.cold)) || !reflect.DeepEqual(hot, o.order(o.hot)) {
				t.Fatalf("%s: LRU order diverged\nprobation %v\n   oracle %v\nprotected %v\n   oracle %v", at, cold, o.order(o.cold), hot, o.order(o.hot))
			}
			if s.hotBytes != o.hotBytes {
				t.Fatalf("%s: %d hot bytes; oracle %d", at, s.hotBytes, o.hotBytes)
			}
		}
	}
	if got := s.Stats().DecodeErrors; got != o.poisoned {
		t.Fatalf("seed %d: DecodeErrors = %d; oracle %d", seed, got, o.poisoned)
	}
	if (mask == 0 || cfg.capped()) && compactions == 0 {
		t.Fatalf("seed %d: the arena never compacted; the test is not exercising it", seed)
	}
	// Every record walked is live, linked and accounted.
	o.doublings, o.chained = s.grows, s.chained
	held := 4 * len(s.buckets)
	for _, c := range s.chunks {
		held += cap(c)
	}
	if s.nrec > len(s.buckets) {
		t.Fatalf("seed %d: %d records linked from %d buckets", seed, s.nrec, len(s.buckets))
	}
	walked, live := 0, 0
	s.each(func(off uint32, r rec) {
		walked++
		live += s.span(r)
		if got, _ := s.find(s.hashRec(r), string(r.key())); got != off {
			t.Fatalf("seed %d: record at %d is not the one its key finds (%d)", seed, off, got)
		}
	})
	if walked != s.nrec || live != s.live {
		t.Fatalf("seed %d: walked %d records for %d linked, %d live bytes for %d", seed, walked, s.nrec, live, s.live)
	}
	if got := s.Stats().ResidentBytes; got != held {
		t.Fatalf("seed %d: ResidentBytes = %d, the arena holds %d", seed, got, held)
	}
	return o
}

// rawValue turns stored bytes back into a value that encodes to them.
func rawValue(raw []byte) FastEncoder {
	var e fastEntry
	if e.DecodeFast(raw) {
		return e
	}
	var str text
	if !str.DecodeFast(raw) {
		panic(fmt.Sprintf("stored bytes %x are neither an entry nor a text", raw))
	}
	return str
}

// TestStorm runs writers, readers, invalidators and an exporter over one
// arena (every key on one chain, 256-byte chunks) for the race detector,
// and checks that a reader only ever sees a value some writer wrote for
// that very key: in-place overwrites must never tear, and a collision must
// never serve a neighbour's release. A burst of short-lived keys outgrows
// the table every 50 rounds and compaction shrinks it again, so it doubles
// under the uncapped store's read-locked readers throughout.
func TestStorm(t *testing.T) {
	t.Run("uncapped", func(t *testing.T) { storm(t, MemConfig{}) })
	// Room for fewer entries than keys written: eviction runs under fire.
	t.Run("capped", func(t *testing.T) { storm(t, MemConfig{MaxBytes: 12 * (2 + 25)}) })
}

func storm(t *testing.T, cfg MemConfig) {
	s := newMem(cfg, 8, 1<<20)
	s.hashMask = 0
	const keys = 16
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	entryFor := func(k, i int) fastEntry {
		return fastEntry{Value: float64(k), Eps: float64(i), Version: k*1_000_000 + i}
	}
	var stop atomic.Bool
	var writers, others sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				k := (i + w) % keys
				if err := s.Set(fmt.Sprint(k), entryFor(k, i)); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 { // a value of another length: dies and re-appends
					if err := s.Set(fmt.Sprint(k), text(strings.Repeat("y", i%300))); err != nil {
						t.Error(err)
						return
					}
				}
				if w == 0 && i%50 == 0 { // more records than buckets: the table doubles under the readers
					for j := 0; j < 2*keys; j++ {
						if err := s.Set(fmt.Sprint("burst", j), num(j)); err != nil {
							t.Error(err)
							return
						}
					}
					for j := 0; j < 2*keys; j++ {
						s.drop(fmt.Sprint("burst", j))
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for i := 0; !stop.Load(); i++ {
				k := i % keys
				var e fastEntry
				ok, err := s.Get(fmt.Sprint(k), &e)
				if err != nil {
					continue // the text variant read as an Entry: poisoned, deleted
				}
				if ok && (e.Value != float64(k) || e.Version != k*1_000_000+int(e.Eps)) {
					t.Errorf("key %d read a torn or foreign entry %+v", k, e)
					return
				}
			}
		}()
	}
	others.Add(2)
	go func() { // invalidator
		defer others.Done()
		for i := 0; !stop.Load(); i++ {
			k := i % keys
			s.CompareDelete(fmt.Sprint(k), entryFor(k, i%rounds))
			if i%5 == 0 {
				s.drop(fmt.Sprint(k))
			}
		}
	}()
	go func() { // exporter
		defer others.Done()
		for !stop.Load() {
			for k, v := range s.Export() {
				var e fastEntry
				if e.DecodeFast(v) && fmt.Sprint(int(e.Value)) != k {
					t.Errorf("export of key %s carries entry %+v", k, e)
					return
				}
			}
			s.Stats()
		}
	}()
	writers.Wait()
	stop.Store(true)
	others.Wait()
	if got, want := s.Stats().Entries, len(s.Export()); got != want {
		t.Fatalf("Stats counts %d entries but %d keys remain", got, want)
	}
	if !cfg.capped() && s.grows < rounds/100 {
		t.Fatalf("the table doubled %d times in %d rounds: the readers never raced a regrown one", s.grows, rounds)
	}
}

// TestImportReservesOnce pins that an import sizes the table up front
// instead of doubling its way there.
func TestImportReservesOnce(t *testing.T) {
	data := make(map[string][]byte, 50_000)
	for i := 0; i < 50_000; i++ {
		data[windowedKey(i)] = []byte{byte(i)}
	}
	s := NewMem(MemConfig{})
	s.Import(data)
	if n := s.Stats().Entries; n != len(data) {
		t.Fatalf("%d entries after importing %d keys", n, len(data))
	}
	if s.grows > 0 {
		t.Fatalf("the table grew %d times for %d records", s.grows, s.nrec)
	}
}

// TestLimitsFailClosed pins that each limit is an error that stores
// nothing, and never a wrapped length or offset.
func TestLimitsFailClosed(t *testing.T) {
	t.Run("key", func(t *testing.T) {
		s := NewMem(MemConfig{})
		long := strings.Repeat("k", maxKeyLen+1)
		if err := s.Set(long, num(1)); !errors.Is(err, ErrKeyTooLong) {
			t.Fatalf("Set = %v, want ErrKeyTooLong", err)
		}
		s.Import(map[string][]byte{long: {1}, "ok": {2}})
		var v num
		if ok, _ := s.Get(long, &v); ok || s.drop(long) || s.Stats().Entries != 1 {
			t.Fatalf("over-long key left something behind: %d entries", s.Stats().Entries)
		}
		if err := s.Set(long[1:], num(1)); err != nil {
			t.Fatalf("a %d-byte key must fit: %v", maxKeyLen, err)
		}
		if ok, _ := s.Get(long[1:], &v); !ok || v != 1 {
			t.Fatal("longest legal key did not round-trip")
		}
		if st := s.Stats(); st.Sets != 1 || st.SetErrors != 1 {
			t.Fatalf("%d sets, %d refused; want 1 and 1", st.Sets, st.SetErrors)
		}
	})
	t.Run("arena", func(t *testing.T) {
		// One chain over 4 chunks of 256 bytes.
		s := newMem(MemConfig{}, 8, 4)
		s.hashMask = 0
		stored := 0
		var err error
		for ; err == nil && stored < 1000; stored++ {
			err = s.Set(fmt.Sprint("k", stored), text(strings.Repeat("v", 40)))
		}
		stored--
		if !errors.Is(err, ErrArenaFull) {
			t.Fatalf("after %d sets: %v, want ErrArenaFull", stored, err)
		}
		if n := s.Stats().Entries; n != stored {
			t.Fatalf("%d entries after %d successful sets", n, stored)
		}
		if err := s.Set("oversize", text(strings.Repeat("v", 1000))); !errors.Is(err, ErrArenaFull) {
			t.Fatalf("oversize Set into a full arena = %v", err)
		}
		// A refused overwrite leaves the old value standing.
		if err := s.Set("k0", text(strings.Repeat("w", 41))); !errors.Is(err, ErrArenaFull) {
			t.Fatalf("overwrite = %v, want ErrArenaFull", err)
		}
		var got text
		if ok, _ := s.Get("k0", &got); !ok || string(got) != strings.Repeat("v", 40) {
			t.Fatalf("refused overwrite damaged the entry: %v %q", ok, got)
		}
		for i := 0; i < stored; i++ {
			if ok, _ := s.Get(fmt.Sprint("k", i), &got); !ok || string(got) != strings.Repeat("v", 40) {
				t.Fatalf("entry %d lost or changed: %v %q", i, ok, got)
			}
		}
		// Deleting makes room again: the full arena compacts on demand.
		for i := 0; i < stored/2; i++ {
			s.drop(fmt.Sprint("k", i))
		}
		if err := s.Set("again", text(strings.Repeat("v", 40))); err != nil {
			t.Fatalf("set after deletes: %v", err)
		}
	})
}

// TestMaxCapHonoured pins maxCap against the arena it describes, on 256-
// byte chunks and 48 slots: a capped store churned at that cap, with
// records of every size from the smallest to the largest maxCap was told
// of, never runs out of slots, and one capped at the arena's own size
// does.
func TestMaxCapHonoured(t *testing.T) {
	const shift, slots, minPayload, maxRecord = 8, 48, 27, hdrLen + lruLen + 27 + 16
	churn := func(capBytes int) error {
		s := newMem(MemConfig{MaxBytes: capBytes}, shift, slots)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20_000; i++ {
			// A 2-byte key and a value of 25 to 41 bytes.
			k := string([]byte{byte(rng.Intn(40)), byte(rng.Intn(50))})
			if err := s.Set(k, text(strings.Repeat("v", 24+rng.Intn(17)))); err != nil {
				return fmt.Errorf("set %d: %w", i, err)
			}
		}
		return nil
	}
	limit := maxCap(shift, slots, minPayload, maxRecord)
	if err := churn(limit); err != nil {
		t.Fatalf("at the %d-byte cap: %v", limit, err)
	}
	if err := churn(slots << shift); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("over the cap: %v, want ErrArenaFull", err)
	}
}

// TestOversizeValueReleased pins that a value larger than a chunk gives
// its memory back when it is replaced, without waiting for compaction.
func TestOversizeValueReleased(t *testing.T) {
	s := NewMem(MemConfig{})
	big := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		if err := s.Set("section", text(big[:len(big)-i])); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for _, c := range s.chunks {
		held += cap(c)
	}
	if held > 2<<20 {
		t.Fatalf("store holds %d bytes of chunks for one 1 MiB value", held)
	}
	var got text
	if ok, err := s.Get("section", &got); !ok || err != nil || len(got) != len(big)-7 {
		t.Fatalf("Get = %v, %v, %d bytes", ok, err, len(got))
	}
}
