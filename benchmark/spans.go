package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans nest: the
// parent is whichever span was open when this one began (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Iter    int    `json:"iter"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// switched off: begin and end return at once, so the end-to-end run and the
// traced run execute the same benchmark code.
type tracer struct {
	base  time.Time
	spans []span
	open  []int
	iter  int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: t.iter})
	t.open = append(t.open, id)
	t.spans[id].StartNs = int64(time.Since(t.base))
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.base))
	t.open = t.open[:len(t.open)-1]
}

// setIter labels the spans that follow with an iteration id.
func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter = i
	}
}

// seconds returns the duration of every span with the given name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// spanFile is what a traced run leaves behind.
type spanFile struct {
	Host     hostInfo               `json:"host"`
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Metrics  map[string]metricValue `json:"metrics"`
	Exact    []string               `json:"exact"`
	Spans    []span                 `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
