package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/store"
)

// oracle is the store this package used to be — one map entry per key —
// kept as the reference the arena is checked against.
type oracle struct {
	data     map[string]*oracleEntry
	now      *int64
	version  uint64
	poisoned int64
}

type oracleEntry struct {
	val           []byte
	weight        float64
	pinned        bool
	deadline, ttl int64
}

func (o *oracle) expired(e *oracleEntry) bool { return e.ttl > 0 && *o.now > e.deadline }

func enc(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := store.EncodeValue("", "", v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func (o *oracle) setWeighted(full string, raw []byte, w float64) {
	o.data[full] = &oracleEntry{val: raw, weight: w}
	o.version++
}

func (o *oracle) setNXLease(full string, raw []byte, ttl int64) bool {
	if e, ok := o.data[full]; ok && !o.expired(e) {
		return false
	}
	e := &oracleEntry{val: raw, pinned: true}
	if ttl > 0 {
		e.ttl, e.deadline = ttl, *o.now+ttl
	}
	o.data[full] = e
	o.version++
	return true
}

func (o *oracle) compareSwap(full string, want, raw []byte) bool {
	e, ok := o.data[full]
	if !ok || o.expired(e) || !bytes.Equal(e.val, want) {
		return false
	}
	e.val = raw
	if e.ttl > 0 {
		e.deadline = *o.now + e.ttl
	}
	o.version++
	return true
}

// get mirrors Get's reclaim of an expired lease; the caller reports a value
// that would not decode through poison.
func (o *oracle) get(full string) ([]byte, bool) {
	e, ok := o.data[full]
	if !ok {
		return nil, false
	}
	if o.expired(e) {
		delete(o.data, full)
		return nil, false
	}
	return e.val, true
}

func (o *oracle) poison(full string) {
	delete(o.data, full)
	o.poisoned++
	o.version++
}

func (o *oracle) del(full string) bool {
	if _, ok := o.data[full]; !ok {
		return false
	}
	delete(o.data, full)
	o.version++
	return true
}

func (o *oracle) compareDelete(full string, want []byte) bool {
	e, ok := o.data[full]
	if !ok || o.expired(e) || !bytes.Equal(e.val, want) {
		return false
	}
	delete(o.data, full)
	o.version++
	return true
}

func (o *oracle) export(ns string) map[string]store.Exported {
	out := make(map[string]store.Exported)
	for full, e := range o.data {
		if k, ok := strings.CutPrefix(full, ns+":"); ok && e.ttl == 0 {
			out[k] = store.Exported{Val: e.val, Weight: e.weight, Pinned: e.pinned}
		}
	}
	return out
}

func (o *oracle) importNS(ns string, data map[string]store.Exported) {
	for full := range o.data {
		if strings.HasPrefix(full, ns+":") {
			delete(o.data, full)
		}
	}
	for k, v := range data {
		o.data[ns+":"+k] = &oracleEntry{val: v.Val, weight: v.Weight, pinned: v.Pinned}
	}
	o.version++
}

func (o *oracle) keys(ns string) []string {
	var out []string
	for full, e := range o.data {
		if k, ok := strings.CutPrefix(full, ns+":"); ok && !o.expired(e) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (o *oracle) memoryBytes() int {
	n := 0
	for full, e := range o.data {
		n += len(full) + len(e.val)
	}
	return n
}

// TestModel drives random operation sequences against the arena store and
// the map oracle and demands identical answers from every call. The
// chunks are 128 bytes, so most strings are oversize, records hop chunks
// constantly and compaction runs every few dozen operations; the second
// run also forces every key onto one collision chain.
func TestModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		mask uint64
	}{{"hashed", ^uint64(0)}, {"one-chain", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runModel(t, seed, tc.mask)
			}
		})
	}
}

func runModel(t *testing.T, seed int64, mask uint64) {
	rng := rand.New(rand.NewSource(seed))
	var now int64 = 1
	s := newStore(7, 1<<20)
	s.hashMask = mask
	s.nowNanos = func() int64 { return now }
	o := &oracle{data: make(map[string]*oracleEntry), now: &now}

	// No namespace contains ':', where the oracle's joined keys and the
	// arena's interned ids would disagree about what a prefix means.
	nss := []string{"a", "ab", "session-exact/0"}
	// value draws a cache.Entry (fixed 25 bytes, overwritten in place) or
	// a string, short or longer than a chunk.
	value := func() any {
		switch rng.Intn(4) {
		case 0:
			return strings.Repeat("x", rng.Intn(400))
		case 1:
			return fmt.Sprintf("s%d", rng.Intn(5))
		default:
			return cache.Entry{Value: float64(rng.Intn(3)), Eps: 0.5, Version: rng.Intn(2)}
		}
	}
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	compactions := 0
	for step := 0; step < steps; step++ {
		ns := nss[rng.Intn(len(nss))]
		k := fmt.Sprintf("key-%d", rng.Intn(40))
		full := ns + ":" + k
		at := fmt.Sprintf("seed %d step %d %s", seed, step, full)
		before := s.stripes[0].chunks
		switch op := rng.Intn(11); op {
		case 0, 1:
			v, w := value(), float64(rng.Intn(3))
			if err := s.SetWeighted(ns, k, v, w); err != nil {
				t.Fatalf("%s: SetWeighted: %v", at, err)
			}
			o.setWeighted(full, enc(t, v), w)
		case 2:
			v := value()
			var ttl int64
			if rng.Intn(2) == 0 {
				ttl = int64(1 + rng.Intn(50))
			}
			got, err := s.SetNXLease(ns, k, v, time.Duration(ttl))
			if want := o.setNXLease(full, enc(t, v), ttl); err != nil || got != want {
				t.Fatalf("%s: SetNXLease = %v, %v; oracle %v", at, got, err, want)
			}
		case 3:
			// Half the time expect what is stored, so swaps succeed.
			expect, next := value(), value()
			if e, ok := o.data[full]; ok && rng.Intn(2) == 0 {
				expect = rawValue(e.val)
			}
			got, err := s.CompareSwap(ns, k, expect, next)
			if want := o.compareSwap(full, enc(t, expect), enc(t, next)); err != nil || got != want {
				t.Fatalf("%s: CompareSwap = %v, %v; oracle %v", at, got, err, want)
			}
		case 4:
			if got, want := s.Delete(ns, k), o.del(full); got != want {
				t.Fatalf("%s: Delete = %v; oracle %v", at, got, want)
			}
		case 5:
			expect := value()
			if e, ok := o.data[full]; ok && rng.Intn(2) == 0 {
				expect = rawValue(e.val)
			}
			if got, want := s.CompareDelete(ns, k, expect), o.compareDelete(full, enc(t, expect)); got != want {
				t.Fatalf("%s: CompareDelete = %v; oracle %v", at, got, want)
			}
		case 6, 7:
			// Decode as an Entry or as a string; the wrong guess is the
			// poisoned-entry path, which deletes.
			raw, want := o.get(full)
			var e cache.Entry
			var str string
			var out any = &e
			asEntry := rng.Intn(2) == 0
			if !asEntry {
				out = &str
			}
			got, err := s.Get(ns, k, out)
			var probe cache.Entry
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
				reenc := enc(t, e)
				if !asEntry {
					reenc = enc(t, str)
				}
				if !bytes.Equal(reenc, raw) {
					t.Fatalf("%s: Get decoded %x, oracle holds %x", at, reenc, raw)
				}
			}
		case 8:
			now += int64(rng.Intn(30))
		case 9:
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
		case 10:
			if got, want := s.Keys(ns), o.keys(ns); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Keys = %v; oracle %v", at, got, want)
			}
		}
		if after := s.stripes[0].chunks; len(before) > 0 && len(after) > 0 && len(after) < len(before) {
			compactions++
		}
		if s.Len() != len(o.data) || s.MemoryBytes() != o.memoryBytes() || s.Version() != o.version {
			t.Fatalf("%s: Len %d Bytes %d Version %d; oracle %d %d %d", at,
				s.Len(), s.MemoryBytes(), s.Version(), len(o.data), o.memoryBytes(), o.version)
		}
	}
	if got := s.Stats().DecodeErrors; got != o.poisoned {
		t.Fatalf("seed %d: DecodeErrors = %d; oracle %d", seed, got, o.poisoned)
	}
	if mask == 0 && compactions == 0 {
		t.Fatalf("seed %d: stripe 0 never compacted; the test is not exercising it", seed)
	}
	// Every record walked is live, linked and accounted.
	walked, live := 0, 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.each(func(off uint32, r rec) {
			walked++
			live += r.size()
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
}

// rawValue turns stored bytes back into a value that encodes to them.
func rawValue(raw []byte) any {
	var e cache.Entry
	if e.DecodeFast(raw) {
		return e
	}
	var str string
	if err := store.DecodeValue("", "", raw, &str); err != nil {
		panic(err)
	}
	return str
}

// TestStorm runs writers, readers, invalidators and an exporter over one
// stripe (every key on one chain, 256-byte chunks) for the race detector,
// and checks that a reader only ever sees a value some writer wrote for
// that very key: in-place overwrites must never tear, and a collision must
// never serve a neighbour's release.
func TestStorm(t *testing.T) {
	s := newStore(8, 1<<20)
	s.hashMask = 0
	const keys = 16
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	entryFor := func(k, i int) cache.Entry {
		return cache.Entry{Value: float64(k), Eps: float64(i), Version: k*1_000_000 + i}
	}
	var stop atomic.Bool
	var writers, others sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				k := (i + w) % keys
				if err := s.SetWeighted("hot", fmt.Sprint(k), entryFor(k, i), 1); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 { // a value of another length: dies and re-appends
					if err := s.Set("hot", fmt.Sprint(k), strings.Repeat("y", i%300)); err != nil {
						t.Error(err)
						return
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
				var e cache.Entry
				ok, err := s.Get("hot", fmt.Sprint(k), &e)
				if err != nil {
					continue // the string variant read as an Entry: poisoned, deleted
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
				var e cache.Entry
				if e.DecodeFast(v.Val) && fmt.Sprint(int(e.Value)) != k {
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
}

// TestLimitsFailClosed pins that each limit is an error that stores
// nothing, and never a wrapped length or offset.
func TestLimitsFailClosed(t *testing.T) {
	t.Run("key", func(t *testing.T) {
		s := New()
		long := strings.Repeat("k", maxKeyLen+1)
		if err := s.Set("ns", long, 1); !errors.Is(err, ErrKeyTooLong) {
			t.Fatalf("Set = %v, want ErrKeyTooLong", err)
		}
		if ok, err := s.SetNX("ns", long, 1); ok || !errors.Is(err, ErrKeyTooLong) {
			t.Fatalf("SetNX = %v, %v", ok, err)
		}
		s.ImportNamespace("ns", map[string]store.Exported{long: {Val: []byte{1}}, "ok": {Val: []byte{2}}})
		var v int
		if ok, _ := s.Get("ns", long, &v); ok || s.Delete("ns", long) || s.Len() != 1 {
			t.Fatalf("over-long key left something behind: Len %d", s.Len())
		}
		if err := s.Set("ns", long[1:], 1); err != nil {
			t.Fatalf("a %d-byte key must fit: %v", maxKeyLen, err)
		}
		if ok, _ := s.Get("ns", long[1:], &v); !ok || v != 1 {
			t.Fatal("longest legal key did not round-trip")
		}
	})
	t.Run("namespaces", func(t *testing.T) {
		s := New()
		for i := 0; i < maxNamespaces; i++ {
			if err := s.Set(fmt.Sprint("ns", i), "k", i); err != nil {
				t.Fatalf("namespace %d: %v", i, err)
			}
		}
		if err := s.Set("one-too-many", "k", 1); !errors.Is(err, ErrTooManyNamespaces) {
			t.Fatalf("Set = %v, want ErrTooManyNamespaces", err)
		}
		var v int
		if ok, _ := s.Get("one-too-many", "k", &v); ok || s.Len() != maxNamespaces {
			t.Fatalf("refused namespace stored something: Len %d", s.Len())
		}
		last := maxNamespaces - 1
		if ok, _ := s.Get(fmt.Sprint("ns", last), "k", &v); !ok || v != last {
			t.Fatalf("last namespace read %v %d", ok, v)
		}
		if ok, _ := s.Get("ns0", "k", &v); !ok || v != 0 {
			t.Fatalf("first namespace read %v %d: an id wrapped", ok, v)
		}
	})
	t.Run("arena", func(t *testing.T) {
		// One chain, so one stripe: 4 chunks of 256 bytes.
		s := newStore(8, 4)
		s.hashMask = 0
		stored := 0
		var err error
		for ; err == nil && stored < 1000; stored++ {
			err = s.Set("ns", fmt.Sprint("k", stored), strings.Repeat("v", 40))
		}
		stored--
		if !errors.Is(err, ErrArenaFull) {
			t.Fatalf("after %d sets: %v, want ErrArenaFull", stored, err)
		}
		if s.Len() != stored {
			t.Fatalf("Len = %d after %d successful sets", s.Len(), stored)
		}
		if ok, err := s.SetNX("ns", "oversize", strings.Repeat("v", 1000)); ok || !errors.Is(err, ErrArenaFull) {
			t.Fatalf("SetNX into a full arena = %v, %v", ok, err)
		}
		// A refused overwrite leaves the old value standing.
		if err := s.Set("ns", "k0", strings.Repeat("w", 41)); !errors.Is(err, ErrArenaFull) {
			t.Fatalf("overwrite = %v, want ErrArenaFull", err)
		}
		var got string
		if ok, _ := s.Get("ns", "k0", &got); !ok || got != strings.Repeat("v", 40) {
			t.Fatalf("refused overwrite damaged the entry: %v %q", ok, got)
		}
		for i := 0; i < stored; i++ {
			if ok, _ := s.Get("ns", fmt.Sprint("k", i), &got); !ok || got != strings.Repeat("v", 40) {
				t.Fatalf("entry %d lost or changed: %v %q", i, ok, got)
			}
		}
		// Deleting makes room again: the full stripe compacts on demand.
		for i := 0; i < stored/2; i++ {
			s.Delete("ns", fmt.Sprint("k", i))
		}
		if err := s.Set("ns", "again", strings.Repeat("v", 40)); err != nil {
			t.Fatalf("set after deletes: %v", err)
		}
	})
}

// TestNamespaceWithColon pins that namespaces are ids, not prefixes: "a:b"
// and "a" never see each other's keys.
func TestNamespaceWithColon(t *testing.T) {
	s := New()
	_ = s.Set("a:b", "c", 1)
	_ = s.Set("a", "b:c", 2)
	var v int
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
}

// TestOversizeValueReleased pins that a value larger than a chunk gives
// its memory back when it is replaced, without waiting for compaction —
// the persist layer rewrites multi-megabyte section payloads in place.
func TestOversizeValueReleased(t *testing.T) {
	s := New()
	big := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		if err := s.Set("ckpt", "section", big[:len(big)-i]); err != nil {
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
	var got []byte
	if ok, err := s.Get("ckpt", "section", &got); !ok || err != nil || len(got) != len(big)-7 {
		t.Fatalf("Get = %v, %v, %d bytes", ok, err, len(got))
	}
}
