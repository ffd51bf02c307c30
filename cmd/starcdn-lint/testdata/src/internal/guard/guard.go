// Package guard is the lockguard fixture: mutex-guard inference from access
// statistics. Store.n is accessed under s.mu at a strict majority of its
// sites, so the field is inferred mu-guarded and every lock-free access is
// flagged — including raw accesses in a callee only reached from an unlocked
// caller (drain via Flush). The mirror interprocedural case, addLocked via
// Add, is only ever invoked with the lock held and inherits the guard
// through its entry context: raw-in-callee but guarded-in-caller must NOT
// flag. Hits.evs is atomic-discipline (sync/atomic at every site) and is
// exempt from guard inference no matter how asymmetric its lock usage looks.
// Owned locks a tally.Tally from outside its package: the owner exemption
// keeps that lock from being inferred as the guard of Tally's fields.
package guard

import (
	"sync"
	"sync/atomic"

	"fixture/internal/guard/tally"
)

// Store counts events behind a mutex.
type Store struct {
	mu sync.Mutex
	n  int64
}

// Inc adds one under the lock.
func (s *Store) Inc() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

// Get reads the count under the lock.
func (s *Store) Get() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Reset zeroes the count under the lock (explicit unlock path).
func (s *Store) Reset() {
	s.mu.Lock()
	s.n = 0
	s.mu.Unlock()
}

// Swap replaces the count under the lock.
func (s *Store) Swap(d int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.n
	s.n = d
	return old
}

// Add increments through a helper; the lock is held at the call site.
func (s *Store) Add(d int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(d)
}

// addLocked is only invoked with s.mu held: the raw access below inherits
// the guard through its interprocedural entry context and must not flag.
func (s *Store) addLocked(d int64) {
	s.n += d
}

// Peek reads the count without the lock: flagged.
func (s *Store) Peek() int64 {
	return s.n // want lockguard
}

// Flush drains through a helper without taking the lock; the raw accesses
// in the callee get the empty entry context and are flagged there.
func (s *Store) Flush() int64 {
	return s.drain()
}

func (s *Store) drain() int64 {
	v := s.n // want lockguard
	s.n = 0  // want lockguard
	return v
}

// Snapshot demonstrates the escape hatch for a genuinely safe lock-free read.
func (s *Store) Snapshot() int64 {
	//lint:ignore lockguard fixture: snapshot runs in the single-threaded setup phase before the store is shared
	return s.n
}

// Hits mixes a mutex (for unrelated critical sections) with an atomic
// counter. evs is touched by sync/atomic at every site, so lockguard leaves
// it alone even though only two of the three sites hold mu.
type Hits struct {
	mu  sync.Mutex
	evs int64
}

// Bump counts under the lock (the lock protects something else in spirit).
func (h *Hits) Bump() {
	h.mu.Lock()
	atomic.AddInt64(&h.evs, 1)
	h.mu.Unlock()
}

// BumpFast counts without the lock: atomic discipline needs no mutex.
func (h *Hits) BumpFast() {
	atomic.AddInt64(&h.evs, 1)
}

// Load reads under the lock.
func (h *Hits) Load() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return atomic.LoadInt64(&h.evs)
}

// Owned keeps a shared tally behind its own mutex.
type Owned struct {
	mu sync.Mutex
	t  *tally.Tally
}

// Add counts under the owner's lock.
func (o *Owned) Add(d int64) {
	o.mu.Lock()
	o.t.Add(d)
	o.mu.Unlock()
}

// Drain reads and zeroes under the owner's lock.
func (o *Owned) Drain() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.t.N()
	o.t.Reset()
	return n
}

// CountAlone drives a tally no other goroutine can reach: no lock needed.
func CountAlone(ds []int64, t *tally.Tally) {
	for _, d := range ds {
		t.Add(d)
	}
}
