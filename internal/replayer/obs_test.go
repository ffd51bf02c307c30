package replayer

import (
	"bytes"
	"strings"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// obsEnv builds the shared replay fixtures for the observability tests.
func obsEnv(t *testing.T, requests int, seed int64) (*core.HashScheme, []geo.Point, *trace.Trace) {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		t.Fatal(err)
	}
	cities := geo.PaperCities()
	users := make([]geo.Point, len(cities))
	for i, city := range cities {
		users[i] = city.Point
	}
	cls := workload.Video()
	cls.NumObjects = 1500
	cls.SizeSigma = 0.5
	cls.MaxSizeBytes = 4 << 20
	g, err := workload.NewGenerator(cls, cities, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(requests, 900)
	if err != nil {
		t.Fatal(err)
	}
	return h, users, tr
}

// TestReplayObsEndToEnd: a sequential replay with a registry and a rate-1
// tracer must expose per-source counters that sum to the meter, server-side
// hit-rate gauges, and one parseable span per request.
func TestReplayObsEndToEnd(t *testing.T) {
	h, users, tr := obsEnv(t, 4000, 17)
	reg := obs.NewRegistry()
	var spanBuf bytes.Buffer
	tracer := obs.NewTracer(&spanBuf, 1, 5)

	cluster, err := NewClusterOpts(cache.LRU, 64<<20, ServerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	m, err := Replay(h, cluster, users, tr, Options{
		Hashing: true, Relay: true, Seed: 23, Obs: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var reqTotal, hitTotal int64
	var serverGauges, serverReqs int
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "starcdn_replay_requests_total":
			reqTotal += int64(s.Value)
			var src sim.Source
			if err := src.UnmarshalText([]byte(s.Labels[0].Value)); err != nil {
				t.Fatalf("series %s%s: %v", s.Name, s.LabelString(), err)
			}
			if src.Hit() {
				hitTotal += int64(s.Value)
			}
		case "starcdn_server_hit_rate":
			serverGauges++
			if s.Value < 0 || s.Value > 1 {
				t.Errorf("hit rate %s = %v out of [0,1]", s.LabelString(), s.Value)
			}
		case "starcdn_server_requests_total":
			serverReqs++
		}
	}
	if reqTotal != m.Requests {
		t.Errorf("replay counters sum to %d requests, meter says %d", reqTotal, m.Requests)
	}
	if hitTotal != m.Hits {
		t.Errorf("hit-source counters sum to %d, meter says %d", hitTotal, m.Hits)
	}
	if serverGauges == 0 || serverReqs == 0 {
		t.Errorf("no server-side series registered (gauges=%d reqs=%d)",
			serverGauges, serverReqs)
	}

	spans, err := obs.ReadSpans(&spanBuf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(spans)) != m.Requests {
		t.Fatalf("rate-1 tracer emitted %d spans for %d requests", len(spans), m.Requests)
	}
	var spanHits int64
	for i := range spans {
		s := &spans[i]
		if s.Hit {
			spanHits++
		}
		if s.Hit && s.WallMs <= 0 {
			t.Fatalf("span %d hit with non-positive wall latency %v", s.Req, s.WallMs)
		}
		var src sim.Source
		if err := src.UnmarshalText([]byte(s.Source)); err != nil {
			t.Fatalf("span %d: %v", s.Req, err)
		}
	}
	if spanHits != m.Hits {
		t.Errorf("span hit count = %d, meter says %d", spanHits, m.Hits)
	}

	if hlth := cluster.Health(); !hlth.OK || hlth.Live == 0 {
		t.Errorf("healthy cluster reports %+v", hlth)
	}
}

// TestReplayConcurrentObsRace: the window's request goroutines and the
// client's flushes share one registry and tracer while chaos kills servers
// mid-replay — the instruments must hold up under -race, and the kill/revive
// counters plus /healthz state must reflect the schedule.
func TestReplayConcurrentObsRace(t *testing.T) {
	h, users, tr := obsEnv(t, 6000, 29)
	reg := obs.NewRegistry()
	var spanBuf bytes.Buffer
	tracer := obs.NewTracer(&spanBuf, 0.5, 7)

	mid := tr.Requests[len(tr.Requests)/2].TimeSec
	end := tr.Requests[len(tr.Requests)-1].TimeSec
	failures := []sim.FailureEvent{
		{TimeSec: mid, Sat: 100, Down: true, Transient: true},
		{TimeSec: mid, Sat: 200, Down: true}, // permanent: remapped, never revived
		{TimeSec: (mid + end) / 2, Sat: 100, Down: false},
	}

	cluster, err := NewClusterOpts(cache.LRU, 32<<20, ServerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	m, err := ReplayConcurrent(h, cluster, users, tr, Options{
		Hashing: true, Relay: true, Seed: 31,
		Fault:    &FaultPolicy{},
		Failures: failures,
		Obs:      reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var reqTotal int64
	for _, s := range reg.Snapshot() {
		if s.Name == "starcdn_replay_requests_total" {
			reqTotal += int64(s.Value)
		}
	}
	if reqTotal != m.Requests {
		t.Errorf("replay counters sum to %d requests, meter says %d", reqTotal, m.Requests)
	}
	if got := reg.Counter("starcdn_cluster_kills_total").Value(); got != 2 {
		t.Errorf("kills counter = %d, want 2", got)
	}
	if got := reg.Counter("starcdn_cluster_revives_total").Value(); got != 1 {
		t.Errorf("revives counter = %d, want 1", got)
	}

	hlth := cluster.Health()
	if hlth.OK {
		t.Error("health reports OK with a permanently killed satellite")
	}
	if len(hlth.Down) != 1 || hlth.Down[0] != "200" {
		t.Errorf("health down list = %v, want [200]", hlth.Down)
	}

	spans, err := obs.ReadSpans(&spanBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans emitted at sample rate 0.5")
	}
	frac := float64(len(spans)) / float64(m.Requests)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("sampled fraction = %v, want ~0.5", frac)
	}
	seen := make(map[int64]bool, len(spans))
	for i := range spans {
		if seen[spans[i].Req] {
			t.Fatalf("request %d traced twice", spans[i].Req)
		}
		seen[spans[i].Req] = true
	}
}

// TestReplayRecorderMonotoneDeltas: a flight recorder sampling on short wall
// epochs while chaos kills and revives a server mid-epoch must never report a
// negative windowed delta for any cumulative series — the recorder's
// increase() convention clamps across restarts (obs.Recorder.Delta), and the
// cluster carries meters across kill/revive so totals keep accruing.
func TestReplayRecorderMonotoneDeltas(t *testing.T) {
	h, users, tr := obsEnv(t, 4000, 37)
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: 0.05})

	victim := h.NearestOwner(0, h.BucketOf(tr.Requests[0].Object))
	mid := tr.Requests[len(tr.Requests)/2].TimeSec
	end := tr.Requests[len(tr.Requests)-1].TimeSec
	failures := []sim.FailureEvent{
		{TimeSec: mid, Sat: victim, Down: true, Transient: true},
		{TimeSec: (mid + end) / 2, Sat: victim, Down: false},
	}

	cluster, err := NewClusterOpts(cache.LRU, 32<<20, ServerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := Replay(h, cluster, users, tr, Options{
		Hashing: true, Relay: true, Seed: 41, Obs: reg, Recorder: rec,
		Fault: &FaultPolicy{}, Failures: failures,
	}); err != nil {
		t.Fatal(err)
	}

	if rec.Epochs() == 0 {
		t.Fatal("recorder captured no epochs")
	}
	if got := reg.Counter("starcdn_cluster_kills_total").Value(); got != 1 {
		t.Fatalf("kills counter = %d, want 1 (fixture did not exercise a kill)", got)
	}
	var checked int
	for _, key := range rec.Series() {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_count") {
			continue
		}
		d, ok := rec.Delta(key, 0)
		if !ok {
			continue
		}
		checked++
		if d < 0 {
			t.Errorf("%s: windowed delta = %v, want non-negative across kill/revive", key, d)
		}
	}
	if checked == 0 {
		t.Fatal("no cumulative series recorded")
	}
}
