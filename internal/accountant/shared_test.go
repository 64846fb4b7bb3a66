package accountant_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/store"
)

// TestSharedBlockMergesPeerSpends checks the basic replication property:
// a charge made by one replica is visible to a peer after SyncShared,
// and counts against the peer's validation.
func TestSharedBlockMergesPeerSpends(t *testing.T) {
	kv := store.NewMem(store.MemConfig{})
	a := accountant.NewBlock(1.0, 4)
	b := accountant.NewBlock(1.0, 4)
	if err := a.Share(kv, "replica-a", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Share(kv, "replica-b", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.PayRange(0, 2, accountant.Laplace(0.4)); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncShared(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 2; i++ {
		if got := b.SpentAt(i); got != 0.4 {
			t.Fatalf("peer partition %d = %g, want 0.4", i, got)
		}
	}
	if got := b.SpentAt(3); got != 0 {
		t.Fatalf("uncharged partition 3 = %g", got)
	}
	// The peer's own validation includes the merged spend: 0.4 + 0.7 > 1.
	if err := b.PayRange(0, 0, accountant.Laplace(0.7)); !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("over-budget charge after merge: err = %v", err)
	}
	// A fresh replica attaching later inherits the spends at Share time.
	c := accountant.NewBlock(1.0, 4)
	if err := c.Share(kv, "replica-c", time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.SpentAt(1); got != 0.4 {
		t.Fatalf("late-joining replica sees %g, want 0.4", got)
	}
}

// TestSharedBlockExactlyOneWins pins mutual exclusion at the budget
// boundary: two replicas racing to spend more than half the budget on
// the same partition — exactly one must win.
func TestSharedBlockExactlyOneWins(t *testing.T) {
	kv := store.NewMem(store.MemConfig{})
	a := accountant.NewBlock(0.5, 1)
	b := accountant.NewBlock(0.5, 1)
	_ = a.Share(kv, "replica-a", time.Second)
	_ = b.Share(kv, "replica-b", time.Second)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, blk := range []*accountant.Block{a, b} {
		wg.Add(1)
		go func(i int, blk *accountant.Block) {
			defer wg.Done()
			errs[i] = blk.PayRange(0, 0, accountant.Laplace(0.3))
		}(i, blk)
	}
	wg.Wait()
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		} else if !errors.Is(err, accountant.ErrBudgetExhausted) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if okCount != 1 {
		t.Fatalf("%d replicas charged 0.3 against a 0.5 budget", okCount)
	}
}

// TestSharedBlockNoDoubleSpend is the N-replica soundness property:
// replicas hammering overlapping ranges concurrently leave every
// partition's shared spend equal to the sum of successful charges
// against it, never above ε_G.
func TestSharedBlockNoDoubleSpend(t *testing.T) {
	const (
		replicas   = 4
		partitions = 6
		attempts   = 60
		eps        = 0.01
		global     = 1.0
	)
	kv := store.NewMem(store.MemConfig{})
	blocks := make([]*accountant.Block, replicas)
	for r := range blocks {
		blocks[r] = accountant.NewBlock(global, partitions)
		if err := blocks[r].Share(kv, fmt.Sprintf("replica-%d", r), time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// charged[r][i] accumulates replica r's successful charges on i.
	charged := make([][]float64, replicas)
	for r := range charged {
		charged[r] = make([]float64, partitions)
	}
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for a := 0; a < attempts; a++ {
				start := rng.Intn(partitions)
				end := start + rng.Intn(partitions-start)
				if err := blocks[r].PayRange(start, end, accountant.Laplace(eps)); err == nil {
					for i := start; i <= end; i++ {
						charged[r][i] += eps
					}
				} else if !errors.Is(err, accountant.ErrBudgetExhausted) {
					t.Errorf("replica %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	for i := 0; i < partitions; i++ {
		want := 0.0
		for r := 0; r < replicas; r++ {
			want += charged[r][i]
		}
		var shared float64
		if ok, err := kv.Get("!turbo/budget", fmt.Sprintf("spent/%d", i), &shared); err != nil || !ok {
			t.Fatalf("partition %d spend record: %v %v", i, ok, err)
		}
		if math.Abs(shared-want) > 1e-9 {
			t.Fatalf("partition %d: shared spend %g, successful charges sum to %g", i, shared, want)
		}
		if shared > global+1e-9 {
			t.Fatalf("partition %d over ε_G: %g", i, shared)
		}
	}
}

// TestSharedBlockCrashedOwnerRecovers checks liveness past a dead peer:
// a lease left by a crashed replica expires, and the survivor's charge
// goes through within the wait bound.
func TestSharedBlockCrashedOwnerRecovers(t *testing.T) {
	kv := store.NewMem(store.MemConfig{})
	// A "crashed" replica holds partition 0's lease with a short ttl and
	// never releases.
	if ok, err := kv.SetNXLease("!turbo/budget", "owner/0", "dead-replica", 50*time.Millisecond); !ok || err != nil {
		t.Fatalf("plant stale lease: %v %v", ok, err)
	}
	b := accountant.NewBlock(1.0, 1)
	if err := b.Share(kv, "replica-b", 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := b.PayRange(0, 0, accountant.Laplace(0.1)); err != nil {
		t.Fatalf("charge past a dead owner: %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("waited %v for a 50ms lease to expire", waited)
	}
}

// TestSharedBlockUnsharedUnchanged pins that an unshared block still
// charges locally with no store in the loop.
func TestSharedBlockUnsharedUnchanged(t *testing.T) {
	b := accountant.NewBlock(1.0, 2)
	if b.Shared() {
		t.Fatal("fresh block reports shared")
	}
	if err := b.PayRange(0, 1, accountant.Laplace(0.25)); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncShared(); err != nil {
		t.Fatal(err)
	}
	if got := b.SpentAt(0); got != 0.25 {
		t.Fatalf("spent = %g", got)
	}
}
