package core

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/store"
)

// mkReplica builds one replica session over the shared backend be. Every
// replica uses the same seed, so whichever one wins global leadership
// consumes exactly the serial reference's randomness — making the paid
// budget and the released value byte-comparable across interleavings.
func mkReplica(t *testing.T, be store.Backend, id string, ttl time.Duration) (*Session, *dataset.Dataset) {
	t.Helper()
	ds := concurrentDS(t, 8)
	sess, err := NewSession(Config{
		Mode:  Partitioned,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
		Shards: 4, Seed: 21,
		Backend: be, ReplicaID: id, FlightLeaseTTL: ttl,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	return sess, ds
}

// replicatedPaysOnce is the tentpole property test over any shared
// backend: R replicas × C concurrent identical first-time queries move
// the shared accountant by exactly one execution's Paid — the spend a
// serial query on an identically-seeded unreplicated session produces —
// and every caller across every replica observes that one noisy answer.
func replicatedPaysOnce(t *testing.T, mkBackend func(t *testing.T) store.Backend, rounds int) {
	const (
		replicas = 3
		callers  = 4 // per replica
	)
	// Serial reference: same session shape, private backend, one query.
	refDS := concurrentDS(t, 8)
	ref, err := NewSession(Config{
		Mode:  Partitioned,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
		Shards: 4, Seed: 21,
	}, refDS)
	if err != nil {
		t.Fatal(err)
	}
	refQ := query.MustNew(refDS.Domain(), map[int][]int{0: {1}}).WithWindow(0, 7)
	refAns, err := ref.Answer(refQ)
	if err != nil {
		t.Fatal(err)
	}
	refSpent := ref.Accountant().SpentVector()

	for round := 0; round < rounds; round++ {
		be := mkBackend(t)
		fleet := make([]*Session, replicas)
		queries := make([]*query.Query, replicas)
		for r := range fleet {
			sess, ds := mkReplica(t, be, fmt.Sprintf("replica-%d", r), time.Second)
			fleet[r] = sess
			queries[r] = query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 7)
		}

		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			mu    sync.Mutex
			vals  []float64
		)
		for r, sess := range fleet {
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(sess *Session, q *query.Query) {
					defer wg.Done()
					<-start
					a, err := sess.Answer(q)
					if err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
					mu.Lock()
					vals = append(vals, a.Value)
					mu.Unlock()
				}(sess, queries[r])
			}
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}

		// One noisy answer fleet-wide, equal to the serial reference.
		if len(vals) != replicas*callers {
			t.Fatalf("round %d: %d answers, want %d", round, len(vals), replicas*callers)
		}
		for i, v := range vals {
			if math.Abs(v-refAns.Value) > 1e-12 {
				t.Fatalf("round %d: caller %d observed %g, reference %g", round, i, v, refAns.Value)
			}
		}
		// Exactly one execution globally: the whole fleet's trees together
		// ran once.
		totalRuns := 0
		for _, sess := range fleet {
			totalRuns += sess.Tree().Stats().Queries
		}
		if totalRuns != 1 {
			t.Fatalf("round %d: fleet executed %d times, want 1", round, totalRuns)
		}
		// Zero double-spend: the shared per-partition records hold exactly
		// one execution's charge, and every replica's merged view agrees.
		for p := range refSpent {
			var shared float64
			ok, err := be.Get("!turbo/budget", fmt.Sprintf("spent/%d", p), &shared)
			if refSpent[p] == 0 {
				if ok && shared != 0 {
					t.Fatalf("round %d: partition %d charged %g, reference charged nothing", round, p, shared)
				}
				continue
			}
			if err != nil || !ok {
				t.Fatalf("round %d: partition %d spend record: %v %v", round, p, ok, err)
			}
			if math.Abs(shared-refSpent[p]) > 1e-12 {
				t.Fatalf("round %d: partition %d shared spend %g, one execution spends %g",
					round, p, shared, refSpent[p])
			}
		}
		for r, sess := range fleet {
			if err := sess.Accountant().SyncShared(); err != nil {
				t.Fatal(err)
			}
			for p, want := range refSpent {
				if got := sess.Accountant().SpentAt(p); math.Abs(got-want) > 1e-12 {
					t.Fatalf("round %d: replica %d partition %d sees %g, want %g", round, r, p, got, want)
				}
			}
		}
		// The two losing replicas' local flight leaders observed the global
		// leader's fill remotely (their joiners and stragglers then share
		// locally or hit the exact cache — both free).
		remote := 0
		for _, sess := range fleet {
			remote += sess.RemoteShared()
		}
		if remote > replicas-1 {
			t.Fatalf("round %d: %d remote shares from %d replicas", round, remote, replicas)
		}
	}
}

func TestReplicatedFlightPaysOnceGlobally(t *testing.T) {
	replicatedPaysOnce(t, func(t *testing.T) store.Backend { return store.NewMem(store.MemConfig{}) }, 4)
}

// TestReplicatedOverFileStore runs the pay-once property with the fleet
// sharing one persistent store.File — the deployment shape of the CI
// replica smoke (N processes' worth of sessions over one durable store).
func TestReplicatedOverFileStore(t *testing.T) {
	replicatedPaysOnce(t, func(t *testing.T) store.Backend {
		f, err := store.NewFile(store.FileConfig{Dir: filepath.Join(t.TempDir(), "turbo")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}, 1)
}

// peerBeforeLease is a shared backend as one replica sees it, with one
// scheduling point scripted: on the replica's first bid for a flight
// lease, peer runs to completion first.
type peerBeforeLease struct {
	store.Backend
	peer func()
}

func (b *peerBeforeLease) SetNXLease(ns, k string, value any, ttl time.Duration) (bool, error) {
	if ns == flightNS && b.peer != nil {
		peer := b.peer
		b.peer = nil
		peer()
	}
	return b.Backend.SetNXLease(ns, k, value, ttl)
}

// TestReplicatedLeaseWinnerReprobes scripts the interleaving that made
// the fleet pay twice: a peer executes, fills the shared cache and
// releases its lease between this replica's exact-cache probe and its
// lease win. The winner must serve the peer's fill, not execute again.
func TestReplicatedLeaseWinnerReprobes(t *testing.T) {
	kv := store.NewMem(store.MemConfig{})
	peer, peerDS := mkReplica(t, kv, "replica-peer", time.Second)
	var peerAns Answer
	gate := &peerBeforeLease{Backend: kv, peer: func() {
		q := query.MustNew(peerDS.Domain(), map[int][]int{0: {1}}).WithWindow(0, 7)
		var err error
		if peerAns, err = peer.Answer(q); err != nil {
			t.Errorf("peer: %v", err)
		}
	}}
	late, lateDS := mkReplica(t, gate, "replica-late", time.Second)
	ans, err := late.Answer(query.MustNew(lateDS.Domain(), map[int][]int{0: {1}}).WithWindow(0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if gate.peer != nil {
		t.Fatal("the late replica never bid for the flight lease")
	}
	if runs := peer.Tree().Stats().Queries + late.Tree().Stats().Queries; runs != 1 {
		t.Fatalf("fleet executed %d times, want 1", runs)
	}
	if ans.Value != peerAns.Value || ans.Paid != 0 || ans.Source != SourceExactHit {
		t.Fatalf("late replica answered %+v, want the peer's %g as a free exact hit", ans, peerAns.Value)
	}
	if late.RemoteShared() != 1 {
		t.Fatalf("late replica counted %d remote shares, want 1", late.RemoteShared())
	}
	// One payment: the shared books hold the peer's charge and nothing
	// more, and the lease is released for the next first-time asker.
	if err := late.Accountant().SyncShared(); err != nil {
		t.Fatal(err)
	}
	for p, want := range peer.Accountant().SpentVector() {
		if got := late.Accountant().SpentAt(p); got != want {
			t.Fatalf("partition %d: late replica's merged spend %g, the peer paid %g", p, got, want)
		}
	}
	if keys := kv.Keys(flightNS); len(keys) != 0 {
		t.Fatalf("flight leases left behind: %v", keys)
	}
}

// TestReplicatedLeaderCrashRecovers pins liveness past a crashed global
// leader: a flight lease left by a dead replica expires, and a surviving
// replica takes over and executes within the ttl bound.
func TestReplicatedLeaderCrashRecovers(t *testing.T) {
	kv := store.NewMem(store.MemConfig{})
	sess, ds := mkReplica(t, kv, "replica-live", 50*time.Millisecond)
	q := query.MustNew(ds.Domain(), map[int][]int{0: {1}}).WithWindow(0, 7)
	pl, err := sess.Planner().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// The "crashed" replica died holding this flight's lease, after paying
	// nothing and filling nothing.
	if ok, err := kv.SetNXLease(flightNS, flightKey(pl), "replica-dead", 50*time.Millisecond); !ok || err != nil {
		t.Fatalf("plant stale lease: %v %v", ok, err)
	}
	begin := time.Now()
	ans, err := sess.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(begin); waited > time.Second {
		t.Fatalf("waited %v to take over a 50ms lease", waited)
	}
	if sess.Tree().Stats().Queries != 1 {
		t.Fatal("survivor did not execute after takeover")
	}
	if sess.RemoteShared() != 0 {
		t.Fatalf("survivor counted %d remote shares of a flight nobody filled", sess.RemoteShared())
	}
	_ = ans
}

// TestReplicationConfigValidation pins the replication preconditions:
// an explicit shared backend, pure-ε accounting, and Partitioned mode.
func TestReplicationConfigValidation(t *testing.T) {
	ds := concurrentDS(t, 4)
	base := Config{
		Mode:  Partitioned,
		Alpha: 0.1, Beta: 0.01, EpsilonGlobal: 20,
		Seed:    3,
		Backend: store.NewMem(store.MemConfig{}), ReplicaID: "r1",
	}
	if _, err := NewSession(base, ds); err != nil {
		t.Fatalf("valid replicated config refused: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no backend", func(c *Config) { c.Backend = nil }, "shared Config.Backend"},
		{"gaussian", func(c *Config) { c.Gaussian = true; c.DeltaGlobal = 1e-6 }, "pure-ε"},
		{"non-partitioned", func(c *Config) { c.Mode = NonPartitioned }, "Partitioned mode"},
		{"streaming", func(c *Config) { c.Mode = Streaming }, "Partitioned mode"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := NewSession(cfg, concurrentDS(t, 4))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
