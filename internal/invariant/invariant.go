// Package invariant provides sanitizer-style runtime assertions that are
// compiled out of release builds and enabled with `-tags starcdn_debug`.
//
// The simulator's figures are only trustworthy if its hot data structures
// uphold their invariants (bucket indices in range, non-negative cache byte
// accounting, grid-neighbour reciprocity, monotone event time). Checking
// those on every operation would be too expensive for production replays, so
// call sites are written as
//
//	if invariant.Enabled {
//		invariant.Assertf(c.used >= 0, "cache: negative used bytes %d", c.used)
//	}
//
// `Enabled` is an untyped constant: with the default build tags the guard is
// `if false { ... }` and the whole block — including argument evaluation —
// is eliminated at compile time. Under `-tags starcdn_debug` the checks are
// real and a violated invariant panics with the formatted message.
//
// Trivially cheap conditions may call Assert/Assertf without the guard; the
// functions themselves are no-ops in release builds, but their arguments are
// still evaluated, so guard anything that allocates or traverses.
package invariant

import "fmt"

// failf reports a violated invariant. Panicking is deliberate: a broken
// invariant means every number the simulator emits afterwards is suspect,
// and debug builds must fail loudly rather than publish a wrong figure.
func failf(format string, args ...any) {
	panic(fmt.Sprintf("invariant violated: "+format, args...)) //lint:ignore panicfree debug-build sanitizer must abort on violated invariants
}
