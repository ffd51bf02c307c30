package obs

import (
	"log/slog"
	"os"
)

// NewLogger wraps a slog.Handler into a *slog.Logger. A nil handler selects
// the default stderr text handler, preserving the old "nil logs through the
// standard logger" contract of the replayer's error funnel.
func NewLogger(h slog.Handler) *slog.Logger {
	if h == nil {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h)
}
