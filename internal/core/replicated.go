// Cross-replica single-flight: N turbo-server replicas serving one
// static partitioned dataset over one shared store pay each first-time
// query's cache miss once globally, not once per replica.
//
// The local flight group (flight.go) already deduplicates concurrent
// identical misses inside one process; replication extends the same idea
// through the shared store. A cache-missed flight leader first races its
// peers for a lease on the flight key ("predicate+window@version", the
// exact-cache identity) in the !turbo/flight namespace:
//
//   - The lease winner is the global leader: it re-probes the shared
//     exact cache (a peer may have filled and released since this
//     replica's probe), and on a miss executes, pays, fills the shared
//     exact cache (inside the local flight, exactly as before), and
//     releases the lease with a guarded delete on its replica id.
//   - Losers poll the shared exact cache until the leader's fill appears.
//     The shared answer is post-processing of an already-released noisy
//     value — privacy-free, the same argument as the local flight group
//     and the exact cache itself.
//   - If the lease vanishes without a fill, the leader crashed (or its
//     execution failed): the loser retries for leadership. A crashed
//     leader therefore costs the fleet at most one lease ttl of waiting,
//     never a wedged key.
//
// A lease that expires mid-execution (a leader slower than the ttl) lets
// a second replica execute concurrently. That is safe: the shared block
// accountant (accountant/shared.go) makes each payment globally sound,
// and each released answer is individually DP — the fleet merely pays
// twice for that one unlucky query, the same cost as not replicating it.
package core

import (
	"fmt"
	"time"
)

// flightNS is the shared-store namespace holding cross-replica flight
// leader leases; the "!" prefix keeps it apart from cache namespaces.
const flightNS = "!turbo/flight"

// flightPollInterval paces a loser replica's probes of the shared exact
// cache while a peer leads its flight.
const flightPollInterval = 2 * time.Millisecond

// executeReplicated is the cross-replica leg of the flight leader's body:
// race the peers for the flight lease, execute as the global leader or
// poll the shared cache behind the peer that won.
func (s *Session) executeReplicated(pl Plan, key string) (Answer, error) {
	for {
		won, err := s.store.SetNXLease(flightNS, key, s.cfg.ReplicaID, s.cfg.FlightLeaseTTL)
		if err != nil {
			return Answer{}, fmt.Errorf("core: flight lease %q: %w", key, err)
		}
		if won {
			// Re-probe as the global leader, exactly as the local flight
			// leader does: a peer may have executed, filled and released
			// between this replica's probe and its lease win, and
			// executing now would pay for that answer a second time.
			if ans, ok := s.probeRemote(pl); ok {
				s.store.CompareDelete(flightNS, key, s.cfg.ReplicaID)
				return ans, nil
			}
			ans, err := s.executeLeader(pl)
			// Release even after a failed execution, so waiting peers retry
			// for leadership now instead of after the ttl. An expired,
			// already-stolen lease is left alone (guarded delete).
			s.store.CompareDelete(flightNS, key, s.cfg.ReplicaID)
			return ans, err
		}
		ans, done := s.awaitRemoteFlight(pl, key)
		if done {
			return ans, nil
		}
		// The lease vanished without a cache fill: the leader crashed or
		// its execution errored. Retry for leadership.
	}
}

// probeRemote reads a peer replica's fill of pl out of the shared exact
// cache, counting the share.
func (s *Session) probeRemote(pl Plan) (Answer, bool) {
	e, ok := s.exact.Get(pl.Query, pl.Version)
	if !ok {
		return Answer{}, false
	}
	s.remoteShared.Add(1)
	return Answer{Value: e.Value, Source: SourceExactHit}, true
}

// awaitRemoteFlight polls the shared exact cache while a peer replica
// leads the flight on key. done reports the answer was observed; !done
// means the lease is gone without a fill and leadership should be retried.
func (s *Session) awaitRemoteFlight(pl Plan, key string) (ans Answer, done bool) {
	for {
		if ans, ok := s.probeRemote(pl); ok {
			return ans, true
		}
		var holder string
		held, err := s.store.Get(flightNS, key, &holder)
		if err != nil {
			held = false // a poisoned lease record was deleted by the read
		}
		if !held {
			// The lease is released or expired. Re-probe once: the leader
			// fills the cache strictly before releasing, so a successful
			// flight is visible now; a miss here means the leader died.
			return s.probeRemote(pl)
		}
		time.Sleep(flightPollInterval)
	}
}
