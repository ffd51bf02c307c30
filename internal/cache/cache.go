// Package cache implements the byte-capacity object caches used on StarCDN
// satellite edge servers and in the terrestrial baselines: LRU (the paper's
// policy of choice, §2.2), LFU, FIFO, and SIEVE (Zhang et al., NSDI'24, which
// the paper cites as compatible with its consistent hashing scheme).
//
// All policies are measured in bytes: an object of size s consumes s bytes of
// the configured capacity, matching CDN practice where hit rates are reported
// against cache size in GB.
package cache

import (
	"errors"
	"fmt"
)

// ObjectID identifies a cached object. IDs are globally unique across the
// simulated catalogue.
type ObjectID uint64

// ErrTooLarge is returned by Admit when a single object exceeds the cache
// capacity and can therefore never be cached.
var ErrTooLarge = errors.New("cache: object larger than capacity")

var errInvalidSize = errors.New("cache: object size must be positive")

// Policy is a byte-capacity cache with a pluggable eviction policy.
//
// Get performs a lookup that updates the policy's recency/frequency state.
// Admit inserts an object after a miss, evicting as needed.
// Contains peeks without mutating policy state.
type Policy interface {
	// Get reports whether id is cached, updating eviction metadata on a hit.
	Get(id ObjectID) bool
	// Admit inserts the object, evicting victims until it fits. Admitting an
	// already-present object refreshes its metadata. It returns ErrTooLarge
	// if size exceeds the capacity, and an error if size is not positive.
	Admit(id ObjectID, size int64) error
	// Contains reports whether id is cached without touching metadata.
	Contains(id ObjectID) bool
	// SizeOf returns the stored size of id and whether it is cached.
	SizeOf(id ObjectID) (int64, bool)
	// Len returns the number of cached objects.
	Len() int
	// Name returns the policy name ("lru", "lfu", "fifo", "sieve").
	Name() string
}

// Kind selects an eviction policy implementation.
type Kind string

// Supported policy kinds.
const (
	LRU   Kind = "lru"
	LFU   Kind = "lfu"
	FIFO  Kind = "fifo"
	SIEVE Kind = "sieve"
)

// New constructs a cache of the given kind with the given byte capacity.
func New(kind Kind, capacity int64) (Policy, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	switch kind {
	case LRU, LFU, FIFO, SIEVE:
		return newStore(kind, capacity), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy kind %q", kind)
	}
}

// MustNew is New but panics on error; for use with constant arguments.
func MustNew(kind Kind, capacity int64) Policy {
	p, err := New(kind, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// Meter accumulates request and byte hit rates for a request stream, the two
// headline cache metrics in the paper (§2.2).
type Meter struct {
	Requests    int64
	Hits        int64
	BytesTotal  int64
	BytesHit    int64
	BytesMissed int64
}

// Record registers one request of the given size and whether it hit.
func (m *Meter) Record(size int64, hit bool) {
	m.Requests++
	m.BytesTotal += size
	if hit {
		m.Hits++
		m.BytesHit += size
	} else {
		m.BytesMissed += size
	}
}

// RequestHitRate returns the fraction of requests served from cache.
func (m *Meter) RequestHitRate() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Requests)
}

// ByteHitRate returns the fraction of bytes served from cache.
func (m *Meter) ByteHitRate() float64 {
	if m.BytesTotal == 0 {
		return 0
	}
	return float64(m.BytesHit) / float64(m.BytesTotal)
}

// Merge adds the counters of o into m.
func (m *Meter) Merge(o Meter) {
	m.Requests += o.Requests
	m.Hits += o.Hits
	m.BytesTotal += o.BytesTotal
	m.BytesHit += o.BytesHit
	m.BytesMissed += o.BytesMissed
}

// String implements fmt.Stringer.
func (m *Meter) String() string {
	return fmt.Sprintf("req=%d RHR=%.2f%% BHR=%.2f%%",
		m.Requests, 100*m.RequestHitRate(), 100*m.ByteHitRate())
}
