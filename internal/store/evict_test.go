package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestBoundedEntryCapHolds(t *testing.T) {
	b := NewMem(MemConfig{MaxEntries: 16, Stripes: 4})
	for i := 0; i < 500; i++ {
		_ = b.Set("ns", fmt.Sprintf("k%03d", i), num(i))
	}
	if got := b.Len(); got > 16 {
		t.Fatalf("Len = %d exceeds cap 16", got)
	}
	st := b.Stats()
	if st.Evictions < 500-16 {
		t.Fatalf("evictions = %d, want >= %d", st.Evictions, 500-16)
	}
	if st.CapEntries != 16 {
		t.Fatalf("CapEntries = %d", st.CapEntries)
	}
}

func TestBoundedByteCapHolds(t *testing.T) {
	b := NewMem(MemConfig{MaxBytes: 4096, Stripes: 2})
	payload := text(make([]byte, 100))
	for i := 0; i < 400; i++ {
		_ = b.Set("ns", fmt.Sprintf("k%03d", i), payload)
	}
	if got := b.MemoryBytes(); got > 4096 {
		t.Fatalf("MemoryBytes = %d exceeds cap 4096", got)
	}
	if b.Stats().Evictions == 0 {
		t.Fatal("no evictions under byte pressure")
	}
}

// TestBoundedProtectedSegment pins the scan resistance: a repeatedly-hit
// working set survives a one-touch scan.
func TestBoundedProtectedSegment(t *testing.T) {
	b := NewMem(MemConfig{MaxBytes: 8192, Stripes: 1})
	payload := text(make([]byte, 64))
	var out text
	// Build and repeatedly touch a small hot set → promoted to protected.
	for i := 0; i < 10; i++ {
		_ = b.Set("ns", fmt.Sprintf("hot%d", i), payload)
	}
	for touch := 0; touch < 3; touch++ {
		for i := 0; i < 10; i++ {
			_, _ = b.Get("ns", fmt.Sprintf("hot%d", i), &out)
		}
	}
	// One-touch scan pressure.
	for i := 0; i < 500; i++ {
		_ = b.Set("ns", fmt.Sprintf("scan%d", i), payload)
	}
	survived := 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.Get("ns", fmt.Sprintf("hot%d", i), &out); ok {
			survived++
		}
	}
	if survived < 8 {
		t.Fatalf("only %d/10 hot entries survived a cold scan", survived)
	}
}

func TestBoundedOversizeEntry(t *testing.T) {
	b := NewMem(MemConfig{MaxBytes: 128, Stripes: 1})
	// An entry bigger than the whole cap cannot wedge the store: it is
	// admitted then immediately evicted, leaving the store consistent.
	_ = b.Set("ns", "huge", text(make([]byte, 4096)))
	if got := b.MemoryBytes(); got > 128 {
		t.Fatalf("MemoryBytes = %d after oversize insert", got)
	}
	_ = b.Set("ns", "small", num(1))
	var out num
	if ok, _ := b.Get("ns", "small", &out); !ok {
		t.Fatal("store wedged after oversize insert")
	}
}

func TestBoundedConcurrent(t *testing.T) {
	b := NewMem(MemConfig{MaxEntries: 64, Stripes: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var out num
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(200))
				switch rng.Intn(3) {
				case 0:
					_ = b.Set("ns", k, num(i))
				case 1:
					_, _ = b.Get("ns", k, &out)
				default:
					b.Delete("ns", k)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := b.Len(); got > 64 {
		t.Fatalf("cap breached under concurrency: %d resident", got)
	}
	// Internal byte accounting still agrees with a from-scratch count,
	// per stripe (what the caps are checked against) and in total.
	total := 0
	for i := range b.stripes {
		st := &b.stripes[i]
		scanned := 0
		st.each(func(_ uint32, r rec) { scanned += b.payload(r) })
		if scanned != st.bytes {
			t.Fatalf("stripe %d byte accounting drifted: incremental %d vs scan %d", i, st.bytes, scanned)
		}
		total += scanned
	}
	if total != b.MemoryBytes() {
		t.Fatalf("byte accounting drifted: incremental %d vs scan %d", b.MemoryBytes(), total)
	}
}

// TestBoundedGlobalCapExact pins that stripe shares sum exactly to the
// configured cap: a cap that does not divide the stripe count must never
// be exceeded globally, even when it is smaller than the stripe count.
func TestBoundedGlobalCapExact(t *testing.T) {
	for _, cap := range []int{3, 5, 7, 13} {
		b := NewMem(MemConfig{MaxEntries: cap}) // default stripes, shrunk to the cap
		for i := 0; i < 300; i++ {
			_ = b.Set("ns", fmt.Sprintf("k%03d", i), num(i))
		}
		if got := b.Len(); got > cap {
			t.Fatalf("cap %d: %d resident entries", cap, got)
		}
		if st := b.Stats(); st.CapEntries != cap {
			t.Fatalf("cap %d: Stats reports %d", cap, st.CapEntries)
		}
	}
	b := NewMem(MemConfig{MaxBytes: 1000, Stripes: 8})
	payload := text(make([]byte, 40))
	for i := 0; i < 300; i++ {
		_ = b.Set("ns", fmt.Sprintf("k%03d", i), payload)
	}
	if got := b.MemoryBytes(); got > 1000 {
		t.Fatalf("byte cap 1000: %d resident bytes", got)
	}
}
