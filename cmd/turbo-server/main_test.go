package main

import (
	"strings"
	"testing"

	"repro/internal/store"
)

// TestStoreConfig pins the two-flag → store.MemConfig mapping: no cap is
// the zero config (the uncapped store), a cap is carried through in the
// unit the store counts, and a negative one is refused naming its flag
// instead of reaching a store that would read it as unbounded.
func TestStoreConfig(t *testing.T) {
	for _, tc := range []struct {
		maxMB, maxEntries int
		want              store.MemConfig
		errNames          string
	}{
		{0, 0, store.MemConfig{}, ""},
		{1, 0, store.MemConfig{MaxBytes: 1 << 20}, ""},
		{0, 7, store.MemConfig{MaxEntries: 7}, ""},
		{-5, 0, store.MemConfig{}, "-store-max-mb"},
		{0, -1, store.MemConfig{}, "-store-max-entries"},
	} {
		got, err := storeConfig(tc.maxMB, tc.maxEntries)
		if tc.errNames != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errNames) {
				t.Errorf("storeConfig(%d, %d) = %+v, %v; want an error naming %s", tc.maxMB, tc.maxEntries, got, err, tc.errNames)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("storeConfig(%d, %d) = %+v, %v; want %+v", tc.maxMB, tc.maxEntries, got, err, tc.want)
		}
	}
}
