// reach.go seeds the callgraph edge-kind regression fixtures: every
// function here is a taint entry point (declared in internal/sim) whose
// only path to the determinism source in fixture/reachutil runs through
// one specific edge kind — a method-value reference, a deferred call, or a
// go-statement callee. The findings land in reachutil with these chains.
package sim

import "fixture/reachutil"

// Sampler never calls Draw; it only references it as a method value. The
// reference must still produce a call edge (the stored value is invoked
// later by whoever holds the sampler).
func Sampler() func() float64 { // want deadexport
	s := reachutil.NewSource()
	return s.Draw
}

// DeferredTeardown reaches StampNow only through a defer.
func DeferredTeardown() { // want deadexport
	defer reachutil.StampNow()
}

// SpawnJitter reaches DrawJitter only as a go-statement callee; the
// receive on done joins it.
func SpawnJitter() { // want deadexport
	done := make(chan struct{})
	go reachutil.DrawJitter(done)
	<-done
}
