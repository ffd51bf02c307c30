package main

import "strings"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDecl declares a metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; a test holds the two together.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Simulated values are what the modelled system would see and repeat
	// exactly per seed; the rest is host time, counts or ratios measured here.
	Simulated bool
	// Bound (end-to-end metrics only) is the share of the parent's median by
	// which the metric may get worse before a change counts as a regression.
	Bound float64
}

var endToEnd = []metricDecl{
	{Name: "req_per_s", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "request_hit_rate", Unit: "ratio", Better: "higher", Simulated: true, Bound: 0.08},
	{Name: "uplink_fraction", Unit: "ratio", Better: "lower", Simulated: true, Bound: 0.08},
	{Name: "sim_latency_p50_ms", Unit: "ms", Better: "lower", Simulated: true, Bound: 0.04},
	{Name: "sim_latency_p99_ms", Unit: "ms", Better: "lower", Simulated: true, Bound: 0.04},
}

var perLayer = []metricDecl{
	{Name: "orbit.visible_from_calls", Unit: "count", Better: "lower"},
	{Name: "orbit.visible_from_us_p50", Unit: "us", Better: "lower"},
	{Name: "orbit.visible_from_us_p99", Unit: "us", Better: "lower"},
	{Name: "orbit.busy_s", Unit: "s", Better: "lower"},
	{Name: "orbit.sweep_useful_ratio", Unit: "ratio", Better: "higher"},

	{Name: "sched.epochs", Unit: "count", Better: "lower"},
	{Name: "sched.recompute_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.busy_s", Unit: "s", Better: "lower"},
	{Name: "sched.no_cover_ratio", Unit: "ratio", Better: "lower"},

	{Name: "core.calls", Unit: "count", Better: "lower"},
	{Name: "core.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "core.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.remote_owner_ratio", Unit: "ratio", Better: "lower"},

	{Name: "topo.hops_ns", Unit: "ns", Better: "lower"},

	{Name: "cache.ops", Unit: "count", Better: "lower"},
	{Name: "cache.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cache.busy_s", Unit: "s", Better: "lower"},
	{Name: "cache.get_share", Unit: "ratio", Better: "higher"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions_per_admit", Unit: "ratio", Better: "lower"},

	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.latency_model_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "sim.isl_byte_hops", Unit: "bytes", Better: "lower", Simulated: true},
	{Name: "sim.by_source.local", Unit: "count", Better: "higher", Simulated: true},
	{Name: "sim.by_source.bucket", Unit: "count", Better: "higher", Simulated: true},
	{Name: "sim.by_source.relay-west", Unit: "count", Better: "higher", Simulated: true},
	{Name: "sim.by_source.relay-east", Unit: "count", Better: "higher", Simulated: true},
	{Name: "sim.by_source.ground", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.by_source.no-cover", Unit: "count", Better: "lower", Simulated: true},
	{Name: "sim.phase.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.phase.sched_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.phase.hash_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.phase.cache_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.phase.relay_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.phase.obs_share", Unit: "ratio", Better: "lower"},

	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "obs.series", Unit: "count", Better: "lower"},

	{Name: "replayer.cluster_start_s", Unit: "s", Better: "lower"},
	{Name: "replayer.server_start_us_p50", Unit: "us", Better: "lower"},
	{Name: "replayer.dial_us_p50", Unit: "us", Better: "lower"},
	{Name: "replayer.rtt_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "replayer.rtt_get_us_p99", Unit: "us", Better: "lower"},
	{Name: "replayer.rtt_contains_us_p50", Unit: "us", Better: "lower"},
	{Name: "replayer.rtt_admit_us_p50", Unit: "us", Better: "lower"},
	{Name: "replayer.frames_per_req", Unit: "ratio", Better: "lower"},
	{Name: "replayer.retries", Unit: "count", Better: "lower"},
	{Name: "replayer.replay_s", Unit: "s", Better: "lower"},
	{Name: "replayer.self_s", Unit: "s", Better: "lower"},
	{Name: "replayer.close_s", Unit: "s", Better: "lower"},
	{Name: "replayer.phase.dial_s", Unit: "s", Better: "lower"},
	{Name: "replayer.phase.frame-write_s", Unit: "s", Better: "lower"},
	{Name: "replayer.phase.frame-read_s", Unit: "s", Better: "lower"},
	{Name: "replayer.phase.retry_s", Unit: "s", Better: "lower"},
	{Name: "replayer.by_source.local", Unit: "count", Better: "higher", Simulated: true},
	{Name: "replayer.by_source.bucket", Unit: "count", Better: "higher", Simulated: true},
	{Name: "replayer.by_source.relay-west", Unit: "count", Better: "higher", Simulated: true},
	{Name: "replayer.by_source.relay-east", Unit: "count", Better: "higher", Simulated: true},
	{Name: "replayer.by_source.ground", Unit: "count", Better: "lower", Simulated: true},
	{Name: "replayer.by_source.no-cover", Unit: "count", Better: "lower", Simulated: true},

	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.gen_req_per_s", Unit: "req/s", Better: "higher"},
	{Name: "trace.validate_s", Unit: "s", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "mb", Better: "lower"},
	{Name: "proc.allocs_per_req", Unit: "ratio", Better: "lower"},
	{Name: "proc.alloc_bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},

	{Name: "tracing.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tracing.spans", Unit: "count", Better: "lower"},
}

// exact reports whether a per-layer metric repeats exactly for one seed on
// this workload, so that a later issue may cite it as a count.
func exact(name string, s spec) bool {
	switch name {
	case "sched.epochs", "orbit.visible_from_calls", "cache.ops":
		return true
	case "replayer.frames_per_req":
		// The concurrent replay's frame count follows its interleaving.
		return s.Program != progReplayConc
	}
	return strings.HasPrefix(name, "sim.by_source.")
}

// metricSet collects values against a declaration list. A name nobody
// declared is not reported; it is kept aside and fails the run.
type metricSet struct {
	decls      []metricDecl
	values     map[string]metricValue
	undeclared []string
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]metricValue, len(decls))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	m.undeclared = append(m.undeclared, name)
}

func (m *metricSet) get(name string) float64 { return m.values[name].Value }

// missing lists the declared metrics that have no value yet.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.decls {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
