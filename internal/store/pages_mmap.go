//go:build unix && !race

package store

import (
	"fmt"
	"syscall"
)

// mapPages returns n bytes, rounded up to whole pages, of zeroed anonymous
// memory outside the Go heap, which the collector neither traces nor
// paces itself by. Failing is running out of memory, as a make would have.
func mapPages(n int) []byte {
	m, err := syscall.Mmap(-1, 0, (n+pageSize-1)&^(pageSize-1),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("store: mapping %d bytes: %v", n, err))
	}
	return m
}

// unmapPages returns what mapPages mapped. A slice into it faults from now
// on, which is why no chunk slice outlives the store's lock.
func unmapPages(m []byte) {
	if err := syscall.Munmap(m); err != nil {
		panic(fmt.Sprintf("store: unmapping %d bytes: %v", len(m), err))
	}
}
