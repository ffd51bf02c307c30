// Package reachutil seeds the callgraph-reachability regression fixtures:
// each function here is reached from fixture sim code through one of the
// edge kinds that once blinded the reachability analysis — a method-value
// reference, a deferred call, and a go-statement callee. The determinism
// sources below must each be reported by the taint rules WITH the call
// chain; if any edge kind regresses, the finding (and its `// want` marker)
// goes unmatched and the fixture suite fails.
package reachutil

import (
	"math/rand"
	"time"
)

// Source is handed out to sim code, which stores Draw as a method value.
type Source struct{ scale float64 }

// NewSource returns a fixture source.
func NewSource() *Source { return &Source{scale: 1} }

// Draw is never named by a call expression in sim code — only referenced as
// a method value (sim.Sampler returns s.Draw). The reference alone must
// make it reachable.
func (s *Source) Draw() float64 {
	return s.scale * rand.Float64() // want globalrand
}

// StampNow is reached only through a deferred call (sim.DeferredTeardown).
func StampNow() time.Time {
	return time.Now() // want simtime
}

// DrawJitter is reached only as a go-statement callee (sim.SpawnJitter).
// It closes done so the spawner's receive joins it.
func DrawJitter(done chan struct{}) {
	_ = rand.Intn(10) // want globalrand
	close(done)
}
