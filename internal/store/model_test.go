package store

import (
	"container/list"
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

// oracle is the two stores Mem used to be, kept as the reference the arena
// is checked against: one map entry per key, and — what store.Bounded added
// — a probation and a protected container/list, evicting coldest first.
// Imports go in in key order, as Mem's.
type oracle struct {
	data map[string]*oracleEntry

	// The cap (0 = none) and the policy's state; front = most recent.
	maxBytes        int
	cold, hot       *list.List
	bytes, hotBytes int
	evictions       int64

	// What the run exercised, so a test can tell it was not vacuous.
	demotions int
	// And of the index: table doublings, compactions that shrank a table,
	// and eviction or import deletes of a record behind another in its chain.
	doublings, shrinks, chained int
}

type oracleEntry struct {
	key  string
	val  float64
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

func (e *oracleEntry) size() int { return len(e.key) + 8 }

// insert places or replaces an entry and restores the caps.
func (o *oracle) insert(k string, val float64) {
	if e, ok := o.data[k]; ok {
		e.val = val
		o.touch(e)
	} else {
		e := &oracleEntry{key: k, val: val}
		e.elem = o.cold.PushFront(e)
		o.data[k] = e
		o.bytes += e.size()
	}
	o.evict()
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

// get mirrors Get, touch included.
func (o *oracle) get(k string) (float64, bool) {
	e, ok := o.data[k]
	if !ok {
		return 0, false
	}
	o.touch(e)
	return e.val, true
}

func (o *oracle) export() map[string]float64 {
	out := make(map[string]float64)
	for k, e := range o.data {
		out[k] = e.val
	}
	return out
}

// imp is Import: the store emptied, then data inserted in key order.
func (o *oracle) imp(data map[string]float64) {
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
// are 128 bytes, so the long keys make oversize records, records open
// chunks constantly and compaction runs every few dozen operations; the
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
			t.Logf("%d evictions, %d demotions", seen.evictions, seen.demotions)
			if seen.evictions == 0 || seen.demotions == 0 {
				t.Fatalf("the runs never exercised part of the policy: %d evictions, %d demotions",
					seen.evictions, seen.demotions)
			}
		})
	}
}

// drop removes k as an eviction would: the delete the caching layer never
// makes, for tests that churn records.
func (s *Mem) drop(k string) bool {
	h := s.hash(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	off, prev := s.find(h, k)
	if off == noOff {
		return false
	}
	s.remove(h, off, prev)
	s.settle()
	return true
}

// modelKey is key n of a model run: every fifth is longer than a 128-byte
// chunk, so its record takes a chunk of its own. Two or three of those in
// the protected segment outgrow its share of a capped run's cap, and the
// longest outgrow the whole cap, evicted as they arrive.
func modelKey(n int) string {
	k := fmt.Sprintf("key-%d", n)
	if n%5 == 0 {
		k += strings.Repeat("x", 120+8*n)
	}
	return k
}

func runModel(t *testing.T, seed int64, mask uint64, cfg MemConfig) *oracle {
	rng := rand.New(rand.NewSource(seed))
	s := newMem(cfg, 7, 1<<20)
	s.hashMask = mask
	o := newOracle(cfg)

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
		k := modelKey(rng.Intn(keys))
		at := fmt.Sprintf("seed %d step %d %.12s", seed, step, k)
		before := s.chunks
		tables := len(s.buckets)
		op := rng.Intn(24)
		if op%8 == 6 && op != 6 {
			op = 4 // an import wipes the LRU history: a third as often
		}
		switch op % 8 {
		case 0, 1, 3:
			v := float64(rng.Intn(6))
			if err := s.Set(k, v); err != nil {
				t.Fatalf("%s: Set: %v", at, err)
			}
			o.insert(k, v)
		case 2:
			// A plain delete: the caches never delete, but a record's
			// removal is what eviction runs.
			e, ok := o.data[k]
			if s.drop(k) != ok {
				t.Fatalf("%s: drop = %v, oracle holds the key: %v", at, !ok, ok)
			}
			if ok {
				o.remove(e)
			}
		case 4, 5:
			want, wantOK := o.get(k)
			if got, ok := s.Get(k); ok != wantOK || got != want {
				t.Fatalf("%s: Get = %v, %v; oracle %v, %v", at, got, ok, want, wantOK)
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
	t.Run("capped", func(t *testing.T) { storm(t, MemConfig{MaxBytes: 12 * (2 + 8)}) })
}

func storm(t *testing.T, cfg MemConfig) {
	s := newMem(cfg, 8, 1<<20)
	s.hashMask = 0
	const keys = 16
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	// Write i of key k carries k in the value's top bits and i twice
	// below them, so a torn or foreign entry shows.
	valueFor := func(k, i int) float64 {
		return math.Float64frombits(uint64(k)<<48 | uint64(i)<<24 | uint64(i))
	}
	keyOf := func(v float64) (k int, whole bool) {
		bits := math.Float64bits(v)
		return int(bits >> 48), bits>>24&(1<<24-1) == bits&(1<<24-1)
	}
	var stop atomic.Bool
	var writers, others sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				k := (i + w) % keys
				if err := s.Set(fmt.Sprint(k), valueFor(k, i)); err != nil {
					t.Error(err)
					return
				}
				if w == 0 && i%50 == 0 { // more records than buckets: the table doubles under the readers
					for j := 0; j < 2*keys; j++ {
						if err := s.Set(fmt.Sprint("burst", j), float64(j)); err != nil {
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
				v, ok := s.Get(fmt.Sprint(k))
				if got, whole := keyOf(v); ok && (got != k || !whole) {
					t.Errorf("key %d read a torn or foreign value %#x", k, math.Float64bits(v))
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
			if i%2 == 0 {
				s.drop(fmt.Sprint(k))
			}
		}
	}()
	go func() { // exporter
		defer others.Done()
		for !stop.Load() {
			for k, v := range s.Export() {
				if strings.HasPrefix(k, "burst") {
					continue
				}
				if got, whole := keyOf(v); fmt.Sprint(got) != k || !whole {
					t.Errorf("export of key %s carries value %#x", k, math.Float64bits(v))
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
	data := make(map[string]float64, 50_000)
	for i := 0; i < 50_000; i++ {
		data[windowedKey(i)] = float64(i)
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
		if err := s.Set(long, 1); !errors.Is(err, ErrKeyTooLong) {
			t.Fatalf("Set = %v, want ErrKeyTooLong", err)
		}
		s.Import(map[string]float64{long: 1, "ok": 2})
		if _, ok := s.Get(long); ok || s.drop(long) || s.Stats().Entries != 1 {
			t.Fatalf("over-long key left something behind: %d entries", s.Stats().Entries)
		}
		if err := s.Set(long[1:], 1); err != nil {
			t.Fatalf("a %d-byte key must fit: %v", maxKeyLen, err)
		}
		if v, ok := s.Get(long[1:]); !ok || v != 1 {
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
			err = s.Set(fmt.Sprint("k", stored), float64(stored))
		}
		stored--
		if !errors.Is(err, ErrArenaFull) {
			t.Fatalf("after %d sets: %v, want ErrArenaFull", stored, err)
		}
		if n := s.Stats().Entries; n != stored {
			t.Fatalf("%d entries after %d successful sets", n, stored)
		}
		if err := s.Set(strings.Repeat("o", 1000), 1); !errors.Is(err, ErrArenaFull) {
			t.Fatalf("oversize Set into a full arena = %v", err)
		}
		// An overwrite needs no room: it is in place, and changes only
		// its own value.
		if err := s.Set("k0", -1); err != nil {
			t.Fatalf("overwrite in a full arena = %v", err)
		}
		for i := 0; i < stored; i++ {
			want := float64(i)
			if i == 0 {
				want = -1
			}
			if v, ok := s.Get(fmt.Sprint("k", i)); !ok || v != want {
				t.Fatalf("entry %d lost or changed: %v %v", i, ok, v)
			}
		}
		// Deleting makes room again: the full arena compacts on demand.
		for i := 0; i < stored/2; i++ {
			s.drop(fmt.Sprint("k", i))
		}
		if err := s.Set("again", 1); err != nil {
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
			// A key of 19 to 35 bytes beside the 8-byte value: a payload
			// of 27 to 43.
			k := string([]byte{byte(rng.Intn(40)), byte(rng.Intn(50))}) + strings.Repeat("k", 17+rng.Intn(17))
			if err := s.Set(k, float64(i)); err != nil {
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

// TestOversizeValueReleased pins that a record larger than a chunk (only
// a key that long makes one) gives its memory back when it dies, without
// waiting for compaction: eight of them stored one after another, each
// deleted as the next arrives, never hold more than two.
func TestOversizeValueReleased(t *testing.T) {
	s := NewMem(MemConfig{})
	big := strings.Repeat("v", maxKeyLen)
	for i := 0; i < 8; i++ {
		if err := s.Set(big[i:], float64(i)); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !s.drop(big[i-1:]) {
			t.Fatalf("record %d was not there to delete", i-1)
		}
	}
	held := 0
	for _, c := range s.chunks {
		held += cap(c)
	}
	if held > 2<<16+1<<12 {
		t.Fatalf("store holds %d bytes of chunks for one %d-byte key", held, len(big)-7)
	}
	if v, ok := s.Get(big[7:]); !ok || v != 7 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
}
