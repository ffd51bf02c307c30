// Package directives exercises the //lint:ignore edge cases: one directive
// carrying a comma-separated rule list for a line that triggers two rules,
// a directive attached to the wrong line (it suppresses nothing, so the
// finding survives and the -waivers audit reports the directive as stale),
// and a directive buried in a block comment (inert, and reported as such).
package directives

import mrand "math/rand"

// waivedBoth draws from the global source AND drops the error result of
// rand.Read on the same line; the single directive below waives both rules,
// and the waiver audit shows both as live.
func waivedBoth(buf []byte) {
	//lint:ignore globalrand,errdrop fixture: one directive waiving two rules on one line
	mrand.Read(buf)
}

// misattached's directive sits two lines above the violation: directives
// bind to their own line and the line below, so this one suppresses
// nothing — the finding is still reported, and `starcdn-lint -waivers`
// flags the directive as stale.
func misattached(n int) int {
	//lint:ignore globalrand misattached: the draw moved two lines down
	x := n + 1
	return x + mrand.Intn(n) // want globalrand
}

/*
lint:ignore globalrand buried in a block comment, which never takes effect
*/
func blockComment(n int) int {
	return mrand.Intn(n) // want globalrand
}
