package store

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestBoundedEntryCapHolds: a byte cap over entries of one size bounds
// their count exactly, and every write past it evicts one.
func TestBoundedEntryCapHolds(t *testing.T) {
	per := len("k000") + 8
	b := NewMem(MemConfig{MaxBytes: 16 * per})
	for i := 0; i < 500; i++ {
		_ = b.Set(fmt.Sprintf("k%03d", i%100), float64(i%10))
	}
	st := b.Stats()
	if st.Entries != 16 || st.Bytes != 16*per {
		t.Fatalf("%d entries, %d bytes under a cap of 16 entries' %d", st.Entries, st.Bytes, 16*per)
	}
	if st.Evictions != 500-16 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 500-16)
	}
	if st.CapBytes != 16*per {
		t.Fatalf("CapBytes = %d", st.CapBytes)
	}
}

func TestBoundedByteCapHolds(t *testing.T) {
	b := NewMem(MemConfig{MaxBytes: 4096})
	pad := strings.Repeat("p", 96) // a 108-byte payload
	for i := 0; i < 400; i++ {
		_ = b.Set(fmt.Sprintf("k%03d", i)+pad, float64(i))
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
	b := NewMem(MemConfig{MaxBytes: 8192})
	pad := strings.Repeat("p", 60) // a payload of about 72 bytes
	// Build and repeatedly touch a small hot set → promoted to protected.
	for i := 0; i < 10; i++ {
		_ = b.Set(fmt.Sprintf("hot%d", i)+pad, 1)
	}
	for touch := 0; touch < 3; touch++ {
		for i := 0; i < 10; i++ {
			_, _ = b.Get(fmt.Sprintf("hot%d", i) + pad)
		}
	}
	// One-touch scan pressure.
	for i := 0; i < 500; i++ {
		_ = b.Set(fmt.Sprintf("scan%d", i)+pad, 1)
	}
	survived := 0
	for i := 0; i < 10; i++ {
		if _, ok := b.Get(fmt.Sprintf("hot%d", i) + pad); ok {
			survived++
		}
	}
	if survived < 8 {
		t.Fatalf("only %d/10 hot entries survived a cold scan", survived)
	}
}

func TestBoundedOversizeEntry(t *testing.T) {
	b := NewMem(MemConfig{MaxBytes: 128})
	// An entry bigger than the whole cap cannot wedge the store: it is
	// admitted then immediately evicted, leaving the store consistent.
	_ = b.Set(strings.Repeat("h", 4096), 1)
	if got := b.MemoryBytes(); got > 128 {
		t.Fatalf("MemoryBytes = %d after oversize insert", got)
	}
	_ = b.Set("small", 1)
	if _, ok := b.Get("small"); !ok {
		t.Fatal("store wedged after oversize insert")
	}
}

func TestBoundedConcurrent(t *testing.T) {
	b := NewMem(MemConfig{MaxBytes: 512})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(200))
				switch rng.Intn(3) {
				case 0:
					_ = b.Set(k, float64(i))
				case 1:
					_, _ = b.Get(k)
				default:
					b.drop(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := b.MemoryBytes(); got > 512 {
		t.Fatalf("cap breached under concurrency: %d bytes resident", got)
	}
	// Internal byte accounting still agrees with a from-scratch count.
	scanned, entries := 0, 0
	b.each(func(_ uint32, r rec) { scanned += r.payload(); entries++ })
	if st := b.Stats(); scanned != st.Bytes || entries != st.Entries {
		t.Fatalf("accounting drifted: incremental %d bytes, %d entries; scan %d, %d", st.Bytes, st.Entries, scanned, entries)
	}
}

// TestBoundedGlobalCapExact pins that the byte cap is never exceeded,
// however little of one entry it leaves room for.
func TestBoundedGlobalCapExact(t *testing.T) {
	for _, cap := range []int{1000, 1001, 1003, 1013} {
		b := NewMem(MemConfig{MaxBytes: cap})
		pad := strings.Repeat("p", 33) // a 45-byte payload
		for i := 0; i < 300; i++ {
			_ = b.Set(fmt.Sprintf("k%03d", i)+pad, float64(i))
		}
		if got := b.MemoryBytes(); got > cap {
			t.Fatalf("byte cap %d: %d resident bytes", cap, got)
		}
		if got := b.MemoryBytes(); got <= cap-45 {
			t.Fatalf("byte cap %d: only %d resident bytes, room for one more entry", cap, got)
		}
	}
}
