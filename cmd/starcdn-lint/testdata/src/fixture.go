// Package fixture is the fixture module's API: an interface it exports may
// be called by readers outside the module.
package fixture

import "fixture/internal/exports"

// Labeler exports the exports fixture's labelling interface.
type Labeler = exports.Labeler
