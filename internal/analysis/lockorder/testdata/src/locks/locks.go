// Package locks exercises lockorder against a fixture rank table (the
// test substitutes it), shaped like the repo's own:
//
//	locks.Session.persistMu (10) < locks.Session.appendMu (20)
//	  < locks.Tree.mu (30) < locks.Exact.mu (45)
//	  < locks.Store.mu (60) = locks.Store2.mu (60)
package locks

import "sync"

type Session struct {
	persistMu sync.Mutex
	appendMu  sync.Mutex
}

type Tree struct{ mu sync.Mutex }

type Exact struct{ mu sync.RWMutex }

type Store struct{ mu sync.RWMutex }

type Store2 struct{ mu sync.Mutex }

// other is not in the rank table: ignored entirely.
type other struct{ mu sync.Mutex }

// Acquiring in documented order is silent, defer-unlock included.
func inOrder(s *Session, st *Store) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.appendMu.Lock()
	st.mu.Lock()
	st.mu.Unlock()
	s.appendMu.Unlock()
}

func inverted(s *Session, st *Store) {
	st.mu.Lock()
	s.appendMu.Lock() // want `locks\.Session\.appendMu \(rank 20\) acquired while locks\.Store\.mu \(rank 60\) is held`
	s.appendMu.Unlock()
	st.mu.Unlock()
}

func rlockInverted(s *Session, st *Store) {
	st.mu.RLock()
	s.appendMu.Lock() // want `locks\.Session\.appendMu \(rank 20\) acquired while locks\.Store\.mu \(rank 60\) is held`
	s.appendMu.Unlock()
	st.mu.RUnlock()
}

func invertedAllowed(s *Session, st *Store) {
	st.mu.Lock()
	//turbo:allow(lockorder) shutdown path: store is quiesced here
	s.appendMu.Lock()
	s.appendMu.Unlock()
	st.mu.Unlock()
}

func equalRank(a *Store, b *Store2) {
	a.mu.Lock()
	b.mu.Lock() // want `locks\.Store2\.mu \(rank 60\) acquired while locks\.Store\.mu \(rank 60\) is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

func selfDeadlock(s *Session) {
	s.appendMu.Lock()
	s.appendMu.Lock() // want `locks\.Session\.appendMu acquired while already held \(self-deadlock\)`
	s.appendMu.Unlock()
	s.appendMu.Unlock()
}

// Loop bodies are walked twice: a lock taken in one iteration and still
// held in the next is the self-deadlock the second pass sees.
func lockInLoop(t *Tree, n int) {
	for i := 0; i < n; i++ {
		t.mu.Lock() // want `locks\.Tree\.mu acquired while already held \(self-deadlock\)`
	}
}

func lockPerItem(ts []*Tree) {
	for _, t := range ts {
		t.mu.Lock()
		t.mu.Unlock()
	}
}

// The tree's split phases: claim and commit each take Tree.mu alone, and
// the exact-cache probe between them holds only the cache's lock.
func claim(t *Tree) {
	t.mu.Lock()
	defer t.mu.Unlock()
}

func commit(t *Tree) {
	t.mu.Lock()
	defer t.mu.Unlock()
}

func answer(t *Tree, c *Exact) {
	c.mu.RLock()
	c.mu.RUnlock()
	claim(t)
	commit(t)
}

// Summaries: calling a function that acquires a lower-ranked lock while
// holding a higher-ranked one is the same inversion.
func lockAppend(s *Session) {
	s.appendMu.Lock()
	s.appendMu.Unlock()
}

func callWhileHoldingStore(s *Session, st *Store) {
	st.mu.Lock()
	lockAppend(s) // want `call to lockAppend acquires locks\.Session\.appendMu \(rank 20\) while locks\.Store\.mu \(rank 60\) is held`
	st.mu.Unlock()
}

// Calling into a higher-ranked acquisition is the documented direction.
func lockStore(st *Store) {
	st.mu.Lock()
	st.mu.Unlock()
}

func callInOrder(s *Session, st *Store) {
	s.appendMu.Lock()
	lockStore(st)
	s.appendMu.Unlock()
}

// Untabled locks never participate.
func unknownLocks(o *other, st *Store) {
	st.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	st.mu.Unlock()
}

// The store's one lock: taking it again under itself is a self-deadlock,
// and the cache's lock is never taken under it.
func storeReentry(st *Store) {
	st.mu.Lock()
	st.mu.RLock() // want `locks\.Store\.mu acquired while already held \(self-deadlock\)`
	st.mu.RUnlock()
	st.mu.Unlock()
}

func exactUnderStore(c *Exact, st *Store) {
	st.mu.RLock()
	c.mu.Lock() // want `locks\.Exact\.mu \(rank 45\) acquired while locks\.Store\.mu \(rank 60\) is held`
	c.mu.Unlock()
	st.mu.RUnlock()
}
