package obs

import (
	"context"
	"log/slog"
	"os"
	"sync"
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

// CapturedRecord is one structured log record retained by a Capture handler:
// tests assert on level, message, and attribute values instead of parsing
// formatted strings.
type CapturedRecord struct {
	Level   slog.Level
	Message string
	Attrs   map[string]slog.Value
}

// captureState is the sink shared by a Capture handler and every handler
// derived from it via WithAttrs/WithGroup.
type captureState struct {
	mu      sync.Mutex
	records []CapturedRecord
}

// Capture is a thread-safe slog.Handler that records every log record in
// memory. Inject it via NewLogger(capture) wherever a logger seam exists.
type Capture struct {
	with  []slog.Attr
	state *captureState
}

// NewCapture returns an empty capture handler.
func NewCapture() *Capture {
	return &Capture{state: &captureState{}}
}

// Enabled implements slog.Handler (captures every level).
func (c *Capture) Enabled(context.Context, slog.Level) bool { return true }

// Handle implements slog.Handler.
func (c *Capture) Handle(_ context.Context, r slog.Record) error {
	rec := CapturedRecord{
		Level:   r.Level,
		Message: r.Message,
		Attrs:   make(map[string]slog.Value, r.NumAttrs()+len(c.with)),
	}
	for _, a := range c.with {
		rec.Attrs[a.Key] = a.Value.Resolve()
	}
	r.Attrs(func(a slog.Attr) bool {
		rec.Attrs[a.Key] = a.Value.Resolve()
		return true
	})
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	c.state.records = append(c.state.records, rec)
	return nil
}

// WithAttrs implements slog.Handler; derived handlers share the record sink.
func (c *Capture) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &Capture{
		with:  append(append([]slog.Attr(nil), c.with...), attrs...),
		state: c.state,
	}
}

// WithGroup implements slog.Handler. Groups are flattened: the capture sink
// exists for assertions, not for faithful rendering.
func (c *Capture) WithGroup(string) slog.Handler { return c }

// Records returns a snapshot of everything captured so far.
func (c *Capture) Records() []CapturedRecord {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return append([]CapturedRecord(nil), c.state.records...)
}

// Messages returns just the captured messages, in order.
func (c *Capture) Messages() []string {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	out := make([]string, len(c.state.records))
	for i, r := range c.state.records {
		out[i] = r.Message
	}
	return out
}
