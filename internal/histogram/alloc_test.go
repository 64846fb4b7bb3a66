// The node's one array, read off the allocator. Guarded out of race
// builds, whose instrumentation allocates.

//go:build !race

package histogram

import (
	"runtime"
	"testing"
	"unsafe"
)

// allocated returns the objects and bytes fn allocates.
func allocated(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestResidentBytesPerNode: a histogram over n bins is its header and one
// array of 8·(n+⌈n/2⌉) bytes, the n float64 weights and then the n
// float32 counters in the ⌈n/2⌉ float64 slots behind them, read from a
// MemStats delta against that header and array allocated alone, for the
// covid-sized 128 bins and citibike's 1,200.
func TestResidentBytesPerNode(t *testing.T) {
	const rounds = 64
	for _, n := range []int{128, 1200} {
		h := NewUniform(n)
		weights, counts := unsafe.Pointer(unsafe.SliceData(h.weights)), unsafe.Pointer(unsafe.SliceData(h.counts))
		if uintptr(counts) != uintptr(weights)+8*uintptr(n) || len(h.counts) != n {
			t.Fatalf("n=%d: %d counters at weights+%d, want %d right behind the weights", n, len(h.counts), uintptr(counts)-uintptr(weights), n)
		}
		nodes := make([]*Histogram, rounds)
		objects, bytes := allocated(func() {
			for i := range nodes {
				nodes[i] = NewUniform(n)
			}
		})
		heads, arrays := make([]*Histogram, rounds), make([][]float64, rounds)
		wantObjects, wantBytes := allocated(func() {
			for i := range arrays {
				heads[i], arrays[i] = new(Histogram), make([]float64, n+(n+1)/2)
			}
		})
		t.Logf("n=%d: %d bytes a node (%d of array)", n, bytes/rounds, 8*(n+(n+1)/2))
		if objects != wantObjects || bytes != wantBytes {
			t.Fatalf("n=%d: %d nodes allocate %d objects, %d bytes; a header and a %d-element array each, %d and %d",
				n, rounds, objects, bytes, n+(n+1)/2, wantObjects, wantBytes)
		}
		runtime.KeepAlive(nodes)
		runtime.KeepAlive(heads)
		runtime.KeepAlive(arrays)
	}
}
