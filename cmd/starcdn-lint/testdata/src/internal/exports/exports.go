// Package exports is the deadexport fixture: an exported func, method, const
// or var under internal/ that no non-test code references is a finding,
// unless its method implements an interface method something calls, or a
// waiver names the reader that keeps it.
package exports

import "fmt"

// Unused is referenced by nothing.
func Unused() int { return 1 } // want deadexport

// Countdown calls only itself, and a reference from inside its own body
// keeps nothing alive.
func Countdown(n int) int { // want deadexport
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Limit is an exported const nothing reads.
const Limit = 3 // want deadexport

// Scale is read by total, so it is live.
var Scale = 2.0

// Shape is the interface total walks.
type Shape interface{ Area() float64 }

// Square satisfies Shape and fmt.Stringer.
type Square struct{ side float64 }

// Area is exempt: nothing calls it by name, but total calls it through
// Shape.
func (s Square) Area() float64 { return s.side * s.side }

// String is exempt: it implements fmt.Stringer, which fmt calls dynamically.
func (s Square) String() string { return fmt.Sprintf("square(%g)", s.side) }

// Perimeter satisfies no interface and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.side } // want deadexport

// Legacy has no caller in the tree; its waiver names the reader.
//
//lint:ignore deadexport fixture: read by a tool outside the module
func Legacy() int { return 4 }

// Revived was waived while it had no caller. total calls it now, so the
// waiver suppresses nothing and the audit reports it stale.
//
//lint:ignore deadexport fixture: stale, the export has gained a caller
func Revived() int { return 5 }

// total is unexported (the rule looks at exported identifiers only) and
// keeps Scale and Revived alive.
func total(shapes []Shape) float64 {
	sum := float64(Revived())
	for _, s := range shapes {
		sum += Scale * s.Area()
	}
	return sum
}

// Polygon is written as a type below, but nothing calls its Corners.
type Polygon interface{ Corners() int }

var _ Polygon = Square{}

// Corners implements Polygon, whose Corners no code calls.
func (s Square) Corners() int { return 4 } // want deadexport

// Labeler is exported by the module's API (the root package), so readers
// outside the tree may call Label through it.
type Labeler interface{ Label() string }

// Label is exempt: it implements Labeler.
func (s Square) Label() string { return "square" }
