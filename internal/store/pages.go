package store

import (
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// pageSize is the unit mapPages maps in.
var pageSize = os.Getpagesize()

// mappedBytes is the length of every mapping handed out and not taken
// back, across all stores.
var mappedBytes atomic.Int64

// pageSet is one store's chunks and tables, by first byte, each with the
// mapping behind it; resident sums the bytes asked for (ResidentBytes). It
// references no part of the Mem, so a cleanup can hand back what a store
// still holds once nothing references the store.
type pageSet struct {
	mu       sync.Mutex
	held     map[*byte][]byte
	resident atomic.Int64
}

// bytes returns n zeroed bytes of capacity exactly n: an offset packs the
// position inside a chunk into the bits below its shift.
func (p *pageSet) bytes(n int) []byte {
	m := mapPages(n)
	p.mu.Lock()
	p.held[&m[0]] = m
	p.mu.Unlock()
	p.resident.Add(int64(n))
	mappedBytes.Add(int64(len(m)))
	return m[:n:n]
}

// free hands back b, which bytes returned.
func (p *pageSet) free(b []byte) {
	p.mu.Lock()
	m := p.held[unsafe.SliceData(b)]
	delete(p.held, unsafe.SliceData(b))
	p.mu.Unlock()
	p.resident.Add(-int64(cap(b)))
	mappedBytes.Add(-int64(len(m)))
	unmapPages(m)
}

// table and freeTable are bytes and free for a bucket table.
func (p *pageSet) table(n int) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(&p.bytes(4 * n)[0])), n)
}

func (p *pageSet) freeTable(t []uint32) {
	p.free(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t))), 4*len(t)))
}

// release hands back everything still held: the cleanup of a store nothing
// references any more.
func (p *pageSet) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.held {
		mappedBytes.Add(-int64(len(m)))
		unmapPages(m)
	}
}
