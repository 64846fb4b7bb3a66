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

	// The caps (0 = none) and the policy's state; front = most recent.
	maxEnts, maxBytes int
	cold, hot         *list.List
	bytes, hotBytes   int
	evictions         int64

	// What the run exercised, so a test can tell it was not vacuous.
	hotResized, demotions int
	// And of the index: table doublings, compactions that shrank a table,
	// and eviction or import deletes of a record behind another in its chain.
	doublings, shrinks, chained int
}

type oracleEntry struct {
	key  string // ns:k
	val  []byte
	elem *list.Element
	hot  bool
}

func newOracle(cfg MemConfig) *oracle {
	return &oracle{
		data:    make(map[string]*oracleEntry),
		maxEnts: cfg.MaxEntries, maxBytes: cfg.MaxBytes,
		cold: list.New(), hot: list.New(),
	}
}

func (e *oracleEntry) size() int { return len(e.key) + len(e.val) }

func enc(v FastEncoder) []byte { return v.AppendFast(nil) }

// insert places or replaces an entry and restores the caps.
func (o *oracle) insert(full string, val []byte) {
	if e, ok := o.data[full]; ok {
		if e.hot && len(val) != len(e.val) {
			o.hotResized++
		}
		o.setVal(e, val)
		o.touch(e)
	} else {
		e := &oracleEntry{key: full, val: val}
		e.elem = o.cold.PushFront(e)
		o.data[full] = e
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
	if o.maxBytes <= 0 {
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
		return len(o.data) > 0 &&
			(o.maxBytes > 0 && o.bytes > o.maxBytes || o.maxEnts > 0 && len(o.data) > o.maxEnts)
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
func (o *oracle) get(full string) ([]byte, bool) {
	e, ok := o.data[full]
	if !ok {
		return nil, false
	}
	o.touch(e)
	return e.val, true
}

func (o *oracle) poison(full string) {
	o.remove(o.data[full])
	o.poisoned++
}

func (o *oracle) del(full string) bool {
	e, ok := o.data[full]
	if !ok {
		return false
	}
	o.remove(e)
	return true
}

func (o *oracle) compareDelete(full string, want []byte) bool {
	e, ok := o.data[full]
	if !ok || !bytes.Equal(e.val, want) {
		return false
	}
	o.remove(e)
	return true
}

func (o *oracle) export(ns string) map[string][]byte {
	out := make(map[string][]byte)
	for full, e := range o.data {
		if k, ok := strings.CutPrefix(full, ns+":"); ok {
			out[k] = e.val
		}
	}
	return out
}

func (o *oracle) importNS(ns string, data map[string][]byte) {
	for full, e := range o.data {
		if strings.HasPrefix(full, ns+":") {
			o.remove(e)
		}
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o.insert(ns+":"+k, data[k])
	}
}

func (o *oracle) keys(ns string) []string {
	var out []string
	for full := range o.data {
		if k, ok := strings.CutPrefix(full, ns+":"); ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// order lists a segment's keys, most recent first.
func (o *oracle) order(seg *list.List) []string {
	var out []string
	for elem := seg.Front(); elem != nil; elem = elem.Next() {
		out = append(out, elem.Value.(*oracleEntry).key)
	}
	return out
}

// order lists a segment's records as ns:k, most recent first, checking
// the links both ways and the hot bit on the way.
func (s *Mem) order(t *testing.T, st *memStripe, seg lruList, hot bool) []string {
	t.Helper()
	var out []string
	newer := uint32(noOff)
	for off := seg.head; off != noOff; {
		r := st.at(off)
		if l := r.lru(); l.newer() != newer || l.hot() != hot {
			t.Fatalf("record %d: newer link %d (want %d), hot %v (want %v)", off, l.newer(), newer, l.hot(), hot)
		}
		out = append(out, (*s.nsNames.Load())[r.ns()]+":"+string(r.key()))
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
		{"capped/bytes-only", ^uint64(0), MemConfig{MaxBytes: 800, Stripes: 1}},
		{"capped/one-chain", 0, MemConfig{MaxEntries: 40, MaxBytes: 1000, Stripes: 1}},
		{"capped/entries-only", ^uint64(0), MemConfig{MaxEntries: 25, Stripes: 1}},
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
			if seen.doublings < 3 || seen.shrinks == 0 || seen.chained == 0 {
				t.Fatalf("the runs never exercised part of the index: %d table doublings, %d shrinking compactions, %d chained unlinks",
					seen.doublings, seen.shrinks, seen.chained)
			}
			if !tc.cfg.capped() {
				return
			}
			t.Logf("%d evictions, %d resized hot entries, %d demotions", seen.evictions, seen.hotResized, seen.demotions)
			if seen.evictions == 0 || seen.hotResized == 0 || (seen.demotions == 0) != (tc.cfg.MaxBytes == 0) {
				t.Fatalf("the runs never exercised part of the policy: %d evictions, %d resized hot entries, %d demotions",
					seen.evictions, seen.hotResized, seen.demotions)
			}
		})
	}
}

func runModel(t *testing.T, seed int64, mask uint64, cfg MemConfig) *oracle {
	rng := rand.New(rand.NewSource(seed))
	s := newMem(cfg, 7, 1<<20)
	s.hashMask = mask
	o := newOracle(cfg)

	// No namespace contains ':', where the oracle's joined keys and the
	// arena's interned ids would disagree about what a prefix means.
	nss := []string{"a", "ab", "session-exact/0"}
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
		ns := nss[rng.Intn(len(nss))]
		// Half the traffic goes to a few keys, so that a protected segment
		// forms and outgrows its share.
		keys := 40
		if rng.Intn(2) == 0 {
			keys = 6
		}
		k := fmt.Sprintf("key-%d", rng.Intn(keys))
		full := ns + ":" + k
		at := fmt.Sprintf("seed %d step %d %s", seed, step, full)
		before := s.stripes[0].chunks
		tables := tableSizes(s)
		op := rng.Intn(24)
		if op%8 == 6 && op != 6 {
			op = 4 // an import wipes a namespace's LRU history: a third as often
		}
		switch op % 8 {
		case 0, 1:
			v := value()
			if err := s.Set(ns, k, v); err != nil {
				t.Fatalf("%s: Set: %v", at, err)
			}
			o.insert(full, enc(v))
		case 2:
			if got, want := s.Delete(ns, k), o.del(full); got != want {
				t.Fatalf("%s: Delete = %v; oracle %v", at, got, want)
			}
		case 3:
			expect := value()
			if e, ok := o.data[full]; ok && rng.Intn(2) == 0 {
				expect = rawValue(e.val)
			}
			if got, want := s.CompareDelete(ns, k, expect), o.compareDelete(full, enc(expect)); got != want {
				t.Fatalf("%s: CompareDelete = %v; oracle %v", at, got, want)
			}
		case 4, 5:
			// Decode as an entry or as a text; the wrong guess is the
			// poisoned-entry path, which deletes.
			raw, want := o.get(full)
			var e fastEntry
			var str text
			var out FastDecoder = &e
			asEntry := rng.Intn(2) == 0
			if !asEntry {
				out = &str
			}
			got, err := s.Get(ns, k, out)
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
				o.poison(full)
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
			// Round-trip a namespace through export/import into another.
			src, dst := ns, nss[rng.Intn(len(nss))]
			data := s.ExportNamespace(src)
			if want := o.export(src); !reflect.DeepEqual(data, want) {
				t.Fatalf("%s: ExportNamespace(%s) = %v; oracle %v", at, src, data, want)
			}
			if rng.Intn(4) == 0 {
				data = nil
			}
			s.ImportNamespace(dst, data)
			o.importNS(dst, data)
		case 7:
			if got, want := s.Keys(ns), o.keys(ns); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Keys = %v; oracle %v", at, got, want)
			}
		}
		if after := s.stripes[0].chunks; len(before) > 0 && len(after) > 0 && len(after) < len(before) {
			compactions++
		}
		for i, n := range tableSizes(s) {
			if n < tables[i] {
				o.shrinks++
			}
		}
		st := s.Stats()
		if s.Len() != len(o.data) || s.MemoryBytes() != o.bytes || st.Evictions != o.evictions {
			t.Fatalf("%s: Len %d Bytes %d Evictions %d; oracle %d %d %d", at,
				s.Len(), s.MemoryBytes(), st.Evictions, len(o.data), o.bytes, o.evictions)
		}
		if cfg.capped() {
			// One stripe, so its segments are the oracle's lists.
			st := &s.stripes[0]
			if cold, hot := s.order(t, st, st.cold, false), s.order(t, st, st.hot, true); !reflect.DeepEqual(cold, o.order(o.cold)) || !reflect.DeepEqual(hot, o.order(o.hot)) {
				t.Fatalf("%s: LRU order diverged\nprobation %v\n   oracle %v\nprotected %v\n   oracle %v", at, cold, o.order(o.cold), hot, o.order(o.hot))
			}
			if st.ents != len(o.data) || st.bytes != o.bytes || st.hotBytes != o.hotBytes {
				t.Fatalf("%s: stripe holds %d entries, %d bytes, %d hot; oracle %d %d %d", at,
					st.ents, st.bytes, st.hotBytes, len(o.data), o.bytes, o.hotBytes)
			}
		}
	}
	if got := s.Stats().DecodeErrors; got != o.poisoned {
		t.Fatalf("seed %d: DecodeErrors = %d; oracle %d", seed, got, o.poisoned)
	}
	if (mask == 0 || cfg.capped()) && compactions == 0 {
		t.Fatalf("seed %d: stripe 0 never compacted; the test is not exercising it", seed)
	}
	// Every record walked is live, linked and accounted.
	walked, live, held := 0, 0, 0
	for i := range s.stripes {
		st := &s.stripes[i]
		o.doublings += st.grows
		o.chained += st.chained
		held += 4 * len(st.buckets)
		for _, c := range st.chunks {
			held += cap(c)
		}
		if st.nrec > len(st.buckets) {
			t.Fatalf("seed %d: stripe %d links %d records from %d buckets", seed, i, st.nrec, len(st.buckets))
		}
		st.each(func(off uint32, r rec) {
			walked++
			live += st.span(r)
			h := s.hashBytes(r.ns(), r.key())
			if got, _ := st.find(h, r.ns(), string(r.key())); got != off {
				t.Fatalf("seed %d: record at %d is not the one its key finds (%d)", seed, off, got)
			}
		})
		live -= st.live
	}
	if walked != s.Len() || live != 0 {
		t.Fatalf("seed %d: walked %d records for Len %d, live bytes off by %d", seed, walked, s.Len(), live)
	}
	if got := s.Stats().ResidentBytes; got != held {
		t.Fatalf("seed %d: ResidentBytes = %d, the stripes hold %d", seed, got, held)
	}
	return o
}

// tableSizes is the bucket count of every stripe.
func tableSizes(s *Mem) []int {
	out := make([]int, len(s.stripes))
	for i := range s.stripes {
		out[i] = len(s.stripes[i].buckets)
	}
	return out
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
// stripe (every key on one chain, 256-byte chunks) for the race detector,
// and checks that a reader only ever sees a value some writer wrote for
// that very key: in-place overwrites must never tear, and a collision must
// never serve a neighbour's release. A burst of short-lived keys outgrows
// the table every 50 rounds and compaction shrinks it again, so it doubles
// under the uncapped store's read-locked readers throughout.
func TestStorm(t *testing.T) {
	t.Run("uncapped", func(t *testing.T) { storm(t, MemConfig{}) })
	// Fewer entries allowed than keys written: eviction runs under fire.
	t.Run("capped", func(t *testing.T) { storm(t, MemConfig{MaxEntries: 12, Stripes: 1}) })
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
				if err := s.Set("hot", fmt.Sprint(k), entryFor(k, i)); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 { // a value of another length: dies and re-appends
					if err := s.Set("hot", fmt.Sprint(k), text(strings.Repeat("y", i%300))); err != nil {
						t.Error(err)
						return
					}
				}
				if w == 0 && i%50 == 0 { // more records than buckets: the table doubles under the readers
					for j := 0; j < 2*keys; j++ {
						if err := s.Set("burst", fmt.Sprint(j), num(j)); err != nil {
							t.Error(err)
							return
						}
					}
					for j := 0; j < 2*keys; j++ {
						s.Delete("burst", fmt.Sprint(j))
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
				ok, err := s.Get("hot", fmt.Sprint(k), &e)
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
			s.CompareDelete("hot", fmt.Sprint(k), entryFor(k, i%rounds))
			if i%5 == 0 {
				s.Delete("hot", fmt.Sprint(k))
			}
		}
	}()
	go func() { // exporter
		defer others.Done()
		for !stop.Load() {
			for k, v := range s.ExportNamespace("hot") {
				var e fastEntry
				if e.DecodeFast(v) && fmt.Sprint(int(e.Value)) != k {
					t.Errorf("export of key %s carries entry %+v", k, e)
					return
				}
			}
			s.Keys("hot")
			s.Stats()
		}
	}()
	writers.Wait()
	stop.Store(true)
	others.Wait()
	if got, want := s.Len(), len(s.Keys("hot")); got != want {
		t.Fatalf("Len = %d but %d keys remain", got, want)
	}
	if grows := s.stripes[0].grows; !cfg.capped() && grows < rounds/100 {
		t.Fatalf("the table doubled %d times in %d rounds: the readers never raced a regrown one", grows, rounds)
	}
}

// TestImportReservesOnce pins that an import sizes each stripe's table up
// front instead of doubling its way there.
func TestImportReservesOnce(t *testing.T) {
	data := make(map[string][]byte, 50_000)
	for i := 0; i < 50_000; i++ {
		data[windowedKey(i)] = []byte{byte(i)}
	}
	s := NewMem(MemConfig{})
	s.ImportNamespace("session-exact/0", data)
	if s.Len() != len(data) {
		t.Fatalf("Len = %d after importing %d keys", s.Len(), len(data))
	}
	for i := range s.stripes {
		if st := &s.stripes[i]; st.grows > 1 {
			t.Fatalf("stripe %d grew its table %d times for %d records", i, st.grows, st.nrec)
		}
	}
}

// TestLimitsFailClosed pins that each limit is an error that stores
// nothing, and never a wrapped length or offset.
func TestLimitsFailClosed(t *testing.T) {
	t.Run("key", func(t *testing.T) {
		s := NewMem(MemConfig{})
		long := strings.Repeat("k", maxKeyLen+1)
		if err := s.Set("ns", long, num(1)); !errors.Is(err, ErrKeyTooLong) {
			t.Fatalf("Set = %v, want ErrKeyTooLong", err)
		}
		s.ImportNamespace("ns", map[string][]byte{long: {1}, "ok": {2}})
		var v num
		if ok, _ := s.Get("ns", long, &v); ok || s.Delete("ns", long) || s.Len() != 1 {
			t.Fatalf("over-long key left something behind: Len %d", s.Len())
		}
		if err := s.Set("ns", long[1:], num(1)); err != nil {
			t.Fatalf("a %d-byte key must fit: %v", maxKeyLen, err)
		}
		if ok, _ := s.Get("ns", long[1:], &v); !ok || v != 1 {
			t.Fatal("longest legal key did not round-trip")
		}
	})
	t.Run("namespaces", func(t *testing.T) {
		s := NewMem(MemConfig{})
		for i := 0; i < maxNamespaces; i++ {
			if err := s.Set(fmt.Sprint("ns", i), "k", num(i)); err != nil {
				t.Fatalf("namespace %d: %v", i, err)
			}
		}
		if err := s.Set("one-too-many", "k", num(1)); !errors.Is(err, ErrTooManyNamespaces) {
			t.Fatalf("Set = %v, want ErrTooManyNamespaces", err)
		}
		var v num
		if ok, _ := s.Get("one-too-many", "k", &v); ok || s.Len() != maxNamespaces {
			t.Fatalf("refused namespace stored something: Len %d", s.Len())
		}
		last := maxNamespaces - 1
		if ok, _ := s.Get(fmt.Sprint("ns", last), "k", &v); !ok || int(v) != last {
			t.Fatalf("last namespace read %v %d", ok, v)
		}
		if ok, _ := s.Get("ns0", "k", &v); !ok || v != 0 {
			t.Fatalf("first namespace read %v %d: an id wrapped", ok, v)
		}
	})
	t.Run("arena", func(t *testing.T) {
		// One chain, so one stripe: 4 chunks of 256 bytes.
		s := newMem(MemConfig{}, 8, 4)
		s.hashMask = 0
		stored := 0
		var err error
		for ; err == nil && stored < 1000; stored++ {
			err = s.Set("ns", fmt.Sprint("k", stored), text(strings.Repeat("v", 40)))
		}
		stored--
		if !errors.Is(err, ErrArenaFull) {
			t.Fatalf("after %d sets: %v, want ErrArenaFull", stored, err)
		}
		if s.Len() != stored {
			t.Fatalf("Len = %d after %d successful sets", s.Len(), stored)
		}
		if err := s.Set("ns", "oversize", text(strings.Repeat("v", 1000))); !errors.Is(err, ErrArenaFull) {
			t.Fatalf("oversize Set into a full arena = %v", err)
		}
		// A refused overwrite leaves the old value standing.
		if err := s.Set("ns", "k0", text(strings.Repeat("w", 41))); !errors.Is(err, ErrArenaFull) {
			t.Fatalf("overwrite = %v, want ErrArenaFull", err)
		}
		var got text
		if ok, _ := s.Get("ns", "k0", &got); !ok || string(got) != strings.Repeat("v", 40) {
			t.Fatalf("refused overwrite damaged the entry: %v %q", ok, got)
		}
		for i := 0; i < stored; i++ {
			if ok, _ := s.Get("ns", fmt.Sprint("k", i), &got); !ok || string(got) != strings.Repeat("v", 40) {
				t.Fatalf("entry %d lost or changed: %v %q", i, ok, got)
			}
		}
		// Deleting makes room again: the full stripe compacts on demand.
		for i := 0; i < stored/2; i++ {
			s.Delete("ns", fmt.Sprint("k", i))
		}
		if err := s.Set("ns", "again", text(strings.Repeat("v", 40))); err != nil {
			t.Fatalf("set after deletes: %v", err)
		}
	})
}

// TestNamespaceWithColon pins that namespaces are ids, not prefixes: "a:b"
// and "a" never see each other's keys, capped or not.
func TestNamespaceWithColon(t *testing.T) {
	for name, cfg := range map[string]MemConfig{"uncapped": {}, "capped": {MaxEntries: 1 << 10}} {
		t.Run(name, func(t *testing.T) {
			s := NewMem(cfg)
			_ = s.Set("a:b", "c", num(1))
			_ = s.Set("a", "b:c", num(2))
			var v num
			if ok, _ := s.Get("a:b", "c", &v); !ok || v != 1 {
				t.Fatalf("a:b/c = %v %d", ok, v)
			}
			if got := s.Keys("a"); len(got) != 1 || got[0] != "b:c" {
				t.Fatalf("Keys(a) = %v", got)
			}
			s.ImportNamespace("a", nil)
			if ok, _ := s.Get("a:b", "c", &v); !ok || s.Len() != 1 {
				t.Fatal("clearing namespace a reached into a:b")
			}
		})
	}
}

// TestOversizeValueReleased pins that a value larger than a chunk gives
// its memory back when it is replaced, without waiting for compaction.
func TestOversizeValueReleased(t *testing.T) {
	s := NewMem(MemConfig{})
	big := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		if err := s.Set("ckpt", "section", text(big[:len(big)-i])); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for i := range s.stripes {
		for _, c := range s.stripes[i].chunks {
			held += cap(c)
		}
	}
	if held > 2<<20 {
		t.Fatalf("store holds %d bytes of chunks for one 1 MiB value", held)
	}
	var got text
	if ok, err := s.Get("ckpt", "section", &got); !ok || err != nil || len(got) != len(big)-7 {
		t.Fatalf("Get = %v, %v, %d bytes", ok, err, len(got))
	}
}
