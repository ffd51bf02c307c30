package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/trace"
)

// runTwice replays the same env/policy-config with and without observability
// and returns both metrics plus the instrumented run's artefacts.
func runTwice(t *testing.T, e *testEnv, mkPolicy func() Policy, cfg Config) (plain, observed *Metrics, reg *obs.Registry, spans []obs.Span) {
	t.Helper()
	plain, err := Run(e.c, e.users, e.tr, mkPolicy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	var buf bytes.Buffer
	ocfg := cfg
	ocfg.Metrics = reg
	ocfg.Tracer = obs.NewTracer(&buf, 1, 42)
	observed, err = Run(e.c, e.users, e.tr, mkPolicy(), ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ocfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err = obs.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return plain, observed, reg, spans
}

// TestRunObsDoesNotChangeResults: enabling the registry, the streaming
// sketches and a rate-1 tracer must leave every simulation result
// byte-identical — observability reads the event stream, it never perturbs
// it.
func TestRunObsDoesNotChangeResults(t *testing.T) {
	e := newEnv(t, 3000, 900)
	mk := func() Policy {
		return e.starcdn(t, 9, 64<<20, StarCDNOptions{Hashing: true, Relay: true})
	}
	cfg := Config{Seed: 5, CollectLatency: true, Sketches: true}
	plain, observed, _, _ := runTwice(t, e, mk, cfg)
	if plain.Meter != observed.Meter {
		t.Errorf("meters diverged: plain=%+v observed=%+v", plain.Meter, observed.Meter)
	}
	if plain.UplinkBytes != observed.UplinkBytes || plain.ISLBytes != observed.ISLBytes {
		t.Errorf("byte accounting diverged: uplink %d vs %d, isl %d vs %d",
			plain.UplinkBytes, observed.UplinkBytes, plain.ISLBytes, observed.ISLBytes)
	}
	if fmt.Sprintf("%v", plain.BySource) != fmt.Sprintf("%v", observed.BySource) {
		t.Errorf("source mix diverged: %v vs %v", plain.BySource, observed.BySource)
	}
	if pa, ob := plain.Latency.Quantile(0.5), observed.Latency.Quantile(0.5); pa != ob {
		t.Errorf("median latency diverged: %v vs %v", pa, ob)
	}
}

// TestRunObsMirrorsMetrics: the live registry must agree with the end-of-run
// Metrics, and rate-1 tracing must emit one span per request with a coherent
// hop chain.
func TestRunObsMirrorsMetrics(t *testing.T) {
	e := newEnv(t, 2000, 600)
	mk := func() Policy {
		return e.starcdn(t, 9, 32<<20, StarCDNOptions{Hashing: true, Relay: true})
	}
	_, m, reg, spans := runTwice(t, e, mk, Config{Seed: 7, CollectPerSat: true, Sketches: true})

	counts := make(map[string]float64)
	satRates := make(map[string]float64)
	var latencyCount, sketchCount int64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "starcdn_sim_sat_hit_rate":
			satRates[s.Labels[0].Value] = s.Value
		case "starcdn_sketch_serve_latency_ms":
			sketchCount = s.SketchCount
		case "starcdn_sim_requests_total":
			counts[s.LabelString()] = s.Value
		case "starcdn_sim_uplink_bytes_total":
			if int64(s.Value) != m.UplinkBytes {
				t.Errorf("uplink counter = %v, metrics say %d", s.Value, m.UplinkBytes)
			}
		case "starcdn_sim_isl_bytes_total":
			if int64(s.Value) != m.ISLBytes {
				t.Errorf("isl counter = %v, metrics say %d", s.Value, m.ISLBytes)
			}
		case "starcdn_sim_request_latency_ms":
			latencyCount = s.HistCount
		}
	}
	for src, n := range m.BySource {
		key := fmt.Sprintf("{source=%q}", Source(src).String())
		if int64(counts[key]) != n {
			t.Errorf("requests_total%s = %v, metrics say %d", key, counts[key], n)
		}
	}
	if latencyCount != m.Meter.Requests || sketchCount != m.Meter.Requests {
		t.Errorf("latency histogram count = %d, sketch count = %d, want %d each",
			latencyCount, sketchCount, m.Meter.Requests)
	}
	if len(satRates) != len(m.PerSat) {
		t.Errorf("%d sat_hit_rate gauges for %d serving satellites", len(satRates), len(m.PerSat))
	}
	for sat, meter := range m.PerSat {
		if got, ok := satRates[strconv.Itoa(int(sat))]; !ok || got != meter.RequestHitRate() {
			t.Errorf("sat_hit_rate{sat=%d} = %v (present=%v), metrics say %v", sat, got, ok, meter.RequestHitRate())
		}
	}

	if int64(len(spans)) != m.Meter.Requests {
		t.Fatalf("rate-1 tracer emitted %d spans for %d requests",
			len(spans), m.Meter.Requests)
	}
	hits := int64(0)
	for i := range spans {
		s := &spans[i]
		if s.Req != int64(i) {
			t.Fatalf("span %d has Req=%d; spans must be emitted in order", i, s.Req)
		}
		var src Source
		if err := src.UnmarshalText([]byte(s.Source)); err != nil {
			t.Fatalf("span %d: %v", i, err)
		}
		if s.Hit != src.Hit() {
			t.Errorf("span %d: Hit=%v for source %s", i, s.Hit, s.Source)
		}
		if s.Hit {
			hits++
		}
		if len(s.Hops) == 0 {
			t.Fatalf("span %d has no hops", i)
		}
		// Coverage implies the chain starts at first contact and ends with
		// the user link; the sum of hop latencies never exceeds the total.
		if src != SourceNoCover {
			if s.Hops[0].Kind != "first-contact" {
				t.Errorf("span %d starts with %q", i, s.Hops[0].Kind)
			}
			if last := s.Hops[len(s.Hops)-1]; last.Kind != "user-link" {
				t.Errorf("span %d ends with %q", i, last.Kind)
			}
		}
		var hopMs float64
		for _, h := range s.Hops {
			hopMs += h.SimMs
		}
		if hopMs > s.SimMs+1e-9 {
			t.Errorf("span %d: hop latencies %v exceed total %v", i, hopMs, s.SimMs)
		}
	}
	if hits != m.Meter.Hits {
		t.Errorf("span hit count = %d, metrics say %d", hits, m.Meter.Hits)
	}
}

// TestRunObsFailureCounters: kills and revivals applied by the failure
// schedule must show up under starcdn_sim_failures_total.
func TestRunObsFailureCounters(t *testing.T) {
	e := newEnv(t, 1500, 900)
	// Choose satellites that actually serve so the run proceeds regardless.
	events := []FailureEvent{
		{TimeSec: 100, Sat: 3, Down: true, Transient: true},
		{TimeSec: 200, Sat: 4, Down: true},
		{TimeSec: 300, Sat: 3, Down: false},
	}
	reg := obs.NewRegistry()
	cfg := Config{Seed: 11, Failures: events, Metrics: reg}
	if _, err := Run(e.c, e.users, e.tr,
		NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: 4 << 20}), cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("starcdn_sim_failures_total", obs.L("kind", "kill")).Value(); got != 2 {
		t.Errorf("kills = %d, want 2", got)
	}
	if got := reg.Counter("starcdn_sim_failures_total", obs.L("kind", "revive")).Value(); got != 1 {
		t.Errorf("revives = %d, want 1", got)
	}
}

// consumers counts the live goroutines running the telemetry consumer. A
// consumer that Run has stopped may still be unwinding when Run returns, so
// a count above zero is re-read for up to a second before it is reported.
func consumers(t *testing.T) int {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(time.Second)
	for {
		n := bytes.Count(buf[:runtime.Stack(buf, true)], []byte("sim.(*runObs).consume"))
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// requestsAt returns, for each recorder point of starcdn_sim_requests_total
// (summed over its source labels), how many requests the run had recorded.
func requestsAt(t *testing.T, rec *obs.Recorder) []obs.Point {
	t.Helper()
	var sum []obs.Point
	for _, key := range rec.Series() {
		if !strings.HasPrefix(key, "starcdn_sim_requests_total{") {
			continue
		}
		pts := rec.Window(key, 0)
		if sum == nil {
			sum = make([]obs.Point, len(pts))
		}
		for i, p := range pts {
			sum[i].T = p.T
			sum[i].V += p.V
		}
	}
	return sum
}

// checkRequestsAt asserts that every recorder point counts exactly the
// trace requests before its boundary and the sealing point counts them all,
// over a run that recorded base requests before this trace.
func checkRequestsAt(t *testing.T, tr *trace.Trace, pts []obs.Point, base int) {
	t.Helper()
	n := len(tr.Requests)
	if len(pts) < 2 {
		t.Fatalf("%d recorder points; the run crossed no epoch boundary", len(pts))
	}
	for i, p := range pts {
		want := n
		if i < len(pts)-1 {
			want = sort.Search(n, func(j int) bool { return tr.Requests[j].TimeSec >= p.T })
		}
		if int(p.V) != base+want {
			t.Errorf("point %d at t=%v: requests_total = %v, want %d", i, p.T, p.V, base+want)
		}
	}
}

// TestRunObsPipelineLifecycle: the telemetry consumer never outlives Run —
// not for an empty trace, not for Metrics without a Recorder, and not for
// one Recorder reused across two Runs, whose first Run leaves an inert
// barrier hook behind. The dense trace puts thousands of requests in each
// recorder epoch, so batches are handed off between snapshots and every
// snapshot goes through the barrier.
func TestRunObsPipelineLifecycle(t *testing.T) {
	e := newEnv(t, 5*obsBatchLen*4, 60)
	mk := func() Policy {
		return e.starcdn(t, 9, 16<<20, StarCDNOptions{Hashing: true, Relay: true})
	}

	t.Run("empty-trace", func(t *testing.T) {
		reg := obs.NewRegistry()
		rec := obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: 15})
		empty := &trace.Trace{Locations: e.tr.Locations}
		cfg := Config{Seed: 3, Metrics: reg, Sketches: true, Recorder: rec}
		if _, err := Run(e.c, e.users, empty, mk(), cfg); err != nil {
			t.Fatal(err)
		}
		if n := consumers(t); n != 0 {
			t.Errorf("%d consumers outlive an empty run", n)
		}
	})

	t.Run("metrics-without-recorder", func(t *testing.T) {
		reg := obs.NewRegistry()
		m, err := Run(e.c, e.users, e.tr, mk(), Config{Seed: 3, Metrics: reg, Sketches: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := consumers(t); n != 0 {
			t.Errorf("%d consumers outlive the run", n)
		}
		var total int64
		for src := range m.BySource {
			total += reg.Counter("starcdn_sim_requests_total", obs.L("source", Source(src).String())).Value()
		}
		if total != int64(len(e.tr.Requests)) {
			t.Errorf("requests_total = %d after Run, want %d", total, len(e.tr.Requests))
		}
	})

	t.Run("recorder-reused", func(t *testing.T) {
		reg := obs.NewRegistry()
		rec := obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: 15, Capacity: 64})
		cfg := Config{Seed: 3, Metrics: reg, Sketches: true, Recorder: rec}
		if _, err := Run(e.c, e.users, e.tr, mk(), cfg); err != nil {
			t.Fatal(err)
		}
		checkRequestsAt(t, e.tr, requestsAt(t, rec), 0)
		if n := consumers(t); n != 0 {
			t.Errorf("%d consumers outlive the first run", n)
		}
		// The second run snapshots through both runs' hooks; the first's
		// must do nothing, and the second's sealing point counts both runs.
		if _, err := Run(e.c, e.users, e.tr, mk(), cfg); err != nil {
			t.Fatal(err)
		}
		if n := consumers(t); n != 0 {
			t.Errorf("%d consumers outlive the second run", n)
		}
		all := requestsAt(t, rec)
		if last := all[len(all)-1].V; int(last) != 2*len(e.tr.Requests) {
			t.Errorf("sealing point after two runs = %v, want %d", last, 2*len(e.tr.Requests))
		}
	})
}
