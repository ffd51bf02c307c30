// Package tally is the other half of the lockguard owner-exemption fixture:
// a counter that leaves synchronization to whoever holds it. guard.Owned
// calls N and Reset only under its own mutex and Add both under it and,
// through a single-owner value, with no lock at all — so n is "guarded" at
// two of its three access sites, by a mutex this package cannot even name.
// That vote must not flag Add.
package tally

// Tally counts; it is not synchronized.
type Tally struct{ n int64 }

// Add adds d.
func (t *Tally) Add(d int64) { t.n += d }

// N returns the count.
func (t *Tally) N() int64 { return t.n }

// Reset zeroes the count.
func (t *Tally) Reset() { t.n = 0 }
