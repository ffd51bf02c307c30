package replayer

import (
	"math/rand"
	"time"
)

// RetryPolicy bounds how often a client re-attempts a failed round trip and
// how long it waits in between. Backoff is exponential with full-range
// jitter drawn from an injected, seeded *rand.Rand, so replays with the same
// seed sleep the same schedule — chaos runs stay reproducible.
//
// Every frame is retried but an OpFetch whose attempt failed after its bytes
// were written: the server may have applied its miss and admit, and a retry
// would read that admit back as a hit. It fails with the attempt's error,
// which a replay under a FaultPolicy degrades to a §3.4 ground miss-through.
// Recency touches (OpGet, OpProbe) repeat harmlessly and are retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per operation, including
	// the first. Values <= 1 disable retrying.
	MaxAttempts int
	// BaseBackoff is the nominal delay before the second attempt; each
	// further attempt doubles it. Zero selects 2ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the nominal per-attempt delay d; jitter then spreads
	// it over [d/2, 3d/2), so a sleep can reach 1.5 × MaxBackoff. Zero
	// selects 50ms.
	MaxBackoff time.Duration
}

// Default backoff constants (loopback round trips are sub-millisecond, so
// single-digit milliseconds already separate attempts from transient
// connection churn without stalling a replay).
const (
	defaultBaseBackoff = 2 * time.Millisecond
	defaultMaxBackoff  = 50 * time.Millisecond
)

// DefaultRetryPolicy is the policy FaultPolicy falls back to: three attempts
// with 2ms nominal backoff capped at 50ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: defaultBaseBackoff, MaxBackoff: defaultMaxBackoff}
}

// attempts returns the effective attempt budget (always >= 1).
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay to sleep before the given attempt (attempt 0 is
// the first try and never waits). The nominal exponential delay d is
// jittered uniformly over [d/2, 3d/2) using rng; a nil rng returns the
// un-jittered nominal delay.
func (p RetryPolicy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	if attempt <= 0 {
		return 0
	}
	base := p.BaseBackoff
	if base <= 0 {
		base = defaultBaseBackoff
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = defaultMaxBackoff
	}
	d := base
	for i := 1; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	if rng != nil {
		d = d/2 + time.Duration(rng.Int63n(int64(d)))
	}
	return d
}
