//go:build !unix || race

package store

// Race builds take pages from the Go heap: the race runtime ignores memory
// outside the heap and data segments, so it could not see mapped arenas.

func mapPages(n int) []byte { return make([]byte, n) }

func unmapPages([]byte) {}
