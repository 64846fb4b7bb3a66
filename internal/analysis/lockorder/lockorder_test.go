package lockorder_test

import (
	"testing"

	"repro/internal/analysis/analysistestlite"
	"repro/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	oldRanks := lockorder.Ranks
	defer func() { lockorder.Ranks = oldRanks }()
	lockorder.Ranks = map[string]int{
		"locks.Session.persistMu": 10,
		"locks.Session.appendMu":  20,
		"locks.Tree.mu":           30,
		"locks.Exact.mu":          45,
		"locks.Store.mu":          60,
		"locks.Store2.mu":         60,
	}
	analysistestlite.Run(t, lockorder.Analyzer, "locks")
}
