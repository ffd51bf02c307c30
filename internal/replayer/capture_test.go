package replayer

import (
	"context"
	"log/slog"
	"sync"
	"testing"

	"starcdn/internal/obs"
)

// capturedRecord is one structured log record retained by a capture handler:
// tests assert on level, message, and attribute values instead of parsing
// formatted strings.
type capturedRecord struct {
	Level   slog.Level
	Message string
	Attrs   map[string]slog.Value
}

// captureState is the sink shared by a capture handler and every handler
// derived from it via WithAttrs/WithGroup.
type captureState struct {
	mu      sync.Mutex
	records []capturedRecord
}

// capture is a thread-safe slog.Handler that records every log record in
// memory; tests hand it to ServerOptions.Log through obs.NewLogger.
type capture struct {
	with  []slog.Attr
	state *captureState
}

func newCapture() *capture { return &capture{state: &captureState{}} }

// Enabled implements slog.Handler (captures every level).
func (c *capture) Enabled(context.Context, slog.Level) bool { return true }

// Handle implements slog.Handler.
func (c *capture) Handle(_ context.Context, r slog.Record) error {
	rec := capturedRecord{
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
func (c *capture) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &capture{
		with:  append(append([]slog.Attr(nil), c.with...), attrs...),
		state: c.state,
	}
}

// WithGroup implements slog.Handler. Groups are flattened: the capture sink
// exists for assertions, not for faithful rendering.
func (c *capture) WithGroup(string) slog.Handler { return c }

// Records returns a snapshot of everything captured so far.
func (c *capture) Records() []capturedRecord {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return append([]capturedRecord(nil), c.state.records...)
}

// Messages returns just the captured messages, in order.
func (c *capture) Messages() []string {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	out := make([]string, len(c.state.records))
	for i, r := range c.state.records {
		out[i] = r.Message
	}
	return out
}

func TestCaptureRecords(t *testing.T) {
	cap := newCapture()
	log := obs.NewLogger(cap)
	log.Error("accept failed", "sat", 7, "err", "boom")
	log.Info("server started", "addr", "127.0.0.1:1")

	recs := cap.Records()
	if len(recs) != 2 {
		t.Fatalf("captured %d records, want 2", len(recs))
	}
	r := recs[0]
	if r.Level != slog.LevelError || r.Message != "accept failed" {
		t.Errorf("record = %+v", r)
	}
	if got := r.Attrs["sat"].Int64(); got != 7 {
		t.Errorf("sat attr = %d, want 7", got)
	}
	if got := r.Attrs["err"].String(); got != "boom" {
		t.Errorf("err attr = %q", got)
	}
	if msgs := cap.Messages(); msgs[1] != "server started" {
		t.Errorf("messages = %v", msgs)
	}
}

// TestCaptureWithAttrs: attrs bound via With() land on captured records, and
// derived loggers share the same sink.
func TestCaptureWithAttrs(t *testing.T) {
	cap := newCapture()
	log := obs.NewLogger(cap).With("sat", 3)
	log.Warn("slow frame", "ms", 12.5)
	recs := cap.Records()
	if len(recs) != 1 {
		t.Fatalf("captured %d records, want 1", len(recs))
	}
	if recs[0].Attrs["sat"].Int64() != 3 || recs[0].Attrs["ms"].Float64() != 12.5 {
		t.Errorf("attrs = %v", recs[0].Attrs)
	}
}

func TestCaptureConcurrent(t *testing.T) {
	cap := newCapture()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			log := obs.NewLogger(cap).With("worker", w)
			for i := 0; i < 100; i++ {
				log.Info("tick", "i", i)
			}
		}(w)
	}
	wg.Wait()
	if got := len(cap.Records()); got != 800 {
		t.Errorf("captured %d records, want 800", got)
	}
}
