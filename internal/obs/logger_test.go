package obs

import (
	"log/slog"
	"sync"
	"testing"
)

func TestCaptureRecords(t *testing.T) {
	cap := NewCapture()
	log := NewLogger(cap)
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
	cap := NewCapture()
	log := NewLogger(cap).With("sat", 3)
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
	cap := NewCapture()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			log := NewLogger(cap).With("worker", w)
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
