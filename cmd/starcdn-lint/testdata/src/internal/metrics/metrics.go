// Package metrics is the metricname-rule fixture: a local Registry stub
// (matched by receiver type name, exactly like the real obs.Registry)
// exercising the naming contract — starcdn_ prefix and charset, counter
// _total suffix, gauge/_total exclusion, histogram unit suffixes, the
// recorder's reserved fan-out suffixes, computed-name exemption, and the
// waiver escape hatch.
package metrics

// Label mirrors obs.Label.
type Label struct{ K, V string } // want deadfield

// L mirrors the obs label constructor; the rule matches the function name
// and Label result type, so literal keys here feed the bounded-cardinality
// vocabulary check.
func L(k, v string) Label { return Label{K: k, V: v} }

// Counter, Gauge, Histogram, TopK, and Sketch mirror the obs instrument
// handles.
type (
	Counter   struct{}
	Gauge     struct{}
	Histogram struct{}
	TopK      struct{}
	Sketch    struct{}
)

// Registry mirrors obs.Registry's constructor surface; the rule matches the
// receiver's type name, not the import path.
type Registry struct{}

func (r *Registry) Counter(name string, labels ...Label) *Counter { return &Counter{} }
func (r *Registry) Gauge(name string, labels ...Label) *Gauge     { return &Gauge{} }
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	return &Histogram{}
}
func (r *Registry) TopK(name string, k int, labels ...Label) *TopK { return &TopK{} }
func (r *Registry) Sketch(name string, alpha float64, labels ...Label) *Sketch {
	return &Sketch{}
}

type instruments struct {
	reg *Registry
}

func register(r *Registry, shard string) {
	// Clean names draw no findings.
	r.Counter("starcdn_fixture_events_total")
	r.Gauge("starcdn_fixture_queue_depth")
	r.Histogram("starcdn_fixture_latency_ms", nil)
	r.Histogram("starcdn_fixture_payload_bytes", []float64{1024})

	// Known subsystem families pass; an invented one does not.
	r.Gauge("starcdn_shed_stage")
	r.Counter("starcdn_shed_actions_total", Label{K: "action", V: "hit-only"})
	r.Counter("starcdn_warp_events_total") // want metricname

	r.Counter("starcdn_fixture_events")                         // want metricname
	r.Counter("fixture_events_total")                           // want metricname
	r.Counter("starcdn_Fixture_events_total")                   // want metricname
	r.Counter("starcdn_fixture_events_total_")                  // want metricname
	r.Gauge("starcdn_fixture_depth_total")                      // want metricname
	r.Histogram("starcdn_fixture_latency", nil)                 // want metricname
	r.Histogram("starcdn_fixture_latency_count", []float64{10}) // want metricname

	// Reaching the registry through a struct field still resolves.
	in := instruments{reg: r}
	in.reg.Counter("starcdn_fixture_frames") // want metricname

	// Computed names are a visible call-site decision; the rule stays quiet.
	r.Counter("starcdn_fixture_" + shard + "_events_total")

	//lint:ignore metricname fixture: legacy dashboards pin this name
	r.Counter("legacy_events")

	// Streaming-sketch instrument kinds: the popularity/sketch families are
	// known; sketches carry unit suffixes like histograms, top-Ks are not
	// counters, and the recorder's top-K/sketch fan-out suffixes are
	// reserved for every kind.
	r.TopK("starcdn_popularity_objects", 32)
	r.Sketch("starcdn_sketch_serve_latency_ms", 0.01)
	r.TopK("starcdn_popularity_hits_total", 32)    // want metricname
	r.Sketch("starcdn_sketch_serve_latency", 0.01) // want metricname
	r.TopK("starcdn_popularity_objects_topk", 32)  // want metricname
	r.Sketch("starcdn_sketch_latency_q", 0.01)     // want metricname
	r.Counter("starcdn_fixture_frames_samples")    // want metricname
	r.Gauge("starcdn_fixture_depth_topk")          // want metricname

	// Label keys come from the bounded-cardinality vocabulary; computed keys
	// are a visible call-site decision.
	r.Counter("starcdn_fixture_events_total", L("source", "hit"))
	r.TopK("starcdn_popularity_sats", 32, L("pipeline", "replay"))
	r.Counter("starcdn_fixture_events_total", L("object_id", "42")) // want metricname
	r.Gauge("starcdn_fixture_depth", L("user", "u-1934"))           // want metricname
	r.Counter("starcdn_fixture_events_total", L(shard, "x"))

	// Performance-observability families: phase timers are seconds-histograms
	// by contract; runtime-bridge gauges carry a unit suffix or name a
	// unitless runtime count.
	r.Histogram("starcdn_phase_stage_seconds", nil, L("pipeline", "sim"), L("stage", "cache"))
	r.Gauge("starcdn_go_goroutines")
	r.Gauge("starcdn_go_gc_cycles")
	r.Gauge("starcdn_go_heap_objects_bytes")
	r.Gauge("starcdn_go_gc_pause_last_seconds")
	r.Histogram("starcdn_phase_stage_ms", nil) // want metricname
	r.Counter("starcdn_phase_flushes_total")   // want metricname
	r.Gauge("starcdn_go_sched_latency")        // want metricname
}
