package replayer

import (
	"io"
	"reflect"
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

// popularityNames are the shared top-K series both pipelines build.
var popularityNames = []string{
	"starcdn_popularity_objects",
	"starcdn_popularity_sats",
	"starcdn_popularity_buckets",
}

// sketchParityEnv builds a fixture whose distinct-key counts stay below the
// top-K capacity (24 objects ≤ 32 tracked entries, and with hashing on the
// serving satellites and buckets are functions of those objects), so the
// Space-Saving summaries never evict and the parity assertions below are
// exact — entry for entry, exemplar for exemplar — rather than approximate.
func sketchParityEnv(t *testing.T, requests, ncities int, durationSec float64, seed int64) (*core.HashScheme, []geo.Point, *trace.Trace) {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		t.Fatal(err)
	}
	cities := geo.PaperCities()[:ncities]
	users := make([]geo.Point, len(cities))
	for i, city := range cities {
		users[i] = city.Point
	}
	cls := workload.Video()
	cls.NumObjects = 24
	cls.SizeSigma = 0.5
	cls.MaxSizeBytes = 4 << 20
	g, err := workload.NewGenerator(cls, cities, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(requests, durationSec)
	if err != nil {
		t.Fatal(err)
	}
	return h, users, tr
}

// popularitySeries extracts the top-K snapshots from a registry, keyed by
// series name.
func popularitySeries(t *testing.T, reg *obs.Registry) map[string]obs.SeriesSnapshot {
	t.Helper()
	out := make(map[string]obs.SeriesSnapshot)
	for _, s := range reg.Snapshot() {
		if strings.HasPrefix(s.Name, "starcdn_popularity_") {
			out[s.Name+s.LabelString()] = s
		}
	}
	return out
}

// comparePopularity asserts the two registries hold identical top-K
// summaries: same entries in the same order with the same counts, error
// bounds, and trace exemplars.
func comparePopularity(t *testing.T, got, want map[string]obs.SeriesSnapshot, gotName, wantName string) {
	t.Helper()
	for _, name := range popularityNames {
		g, okG := got[name]
		w, okW := want[name]
		if !okG || !okW {
			t.Errorf("%s missing in %s=%v / %s=%v", name, gotName, okG, wantName, okW)
			continue
		}
		if g.TopKN != w.TopKN {
			t.Errorf("%s: stream weight differs: %s=%d %s=%d", name, gotName, g.TopKN, wantName, w.TopKN)
		}
		if len(g.TopK) == 0 {
			t.Errorf("%s: empty top-K in %s", name, gotName)
		}
		if !reflect.DeepEqual(g.TopK, w.TopK) {
			t.Errorf("%s: top-K entries differ\n%s: %+v\n%s: %+v",
				name, gotName, g.TopK, wantName, w.TopK)
		}
	}
}

// TestSketchTopKParitySimVsReplay: a sim run and a sequential TCP replay of
// the same seed must build identical top-K popularity summaries — the same
// object/satellite/bucket keys with the same counts and the same trace
// exemplars. The two pipelines share key derivation (sim.PopObjectKey etc.),
// counting rules (objects always, satellites when one served, buckets as a
// pure function of the object), and the deterministic (tracer seed, request
// index) exemplar identity, so under the no-eviction regime of
// sketchParityEnv the summaries match entry for entry.
func TestSketchTopKParitySimVsReplay(t *testing.T) {
	h, users, tr := sketchParityEnv(t, 6000, 9, 900, 41)
	c := h.Grid().Constellation()
	const capacity = 64 << 20
	const seed = 71

	simReg := obs.NewRegistry()
	pol := sim.NewStarCDN(h, sim.CacheConfig{Kind: cache.LRU, Bytes: capacity},
		sim.StarCDNOptions{Hashing: true, Relay: true})
	if _, err := sim.Run(c, users, tr, pol, sim.Config{
		Seed: seed, Metrics: simReg, Sketches: true,
		Tracer: obs.NewTracer(io.Discard, 0.25, 7),
	}); err != nil {
		t.Fatal(err)
	}

	replayReg := obs.NewRegistry()
	cluster, err := NewCluster(cache.LRU, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := Replay(h, cluster, users, tr, Options{
		Hashing: true, Relay: true, Seed: seed, Obs: replayReg, Sketches: true,
		Tracer: obs.NewTracer(io.Discard, 0.25, 7),
	}); err != nil {
		t.Fatal(err)
	}

	simPop := popularitySeries(t, simReg)
	repPop := popularitySeries(t, replayReg)
	comparePopularity(t, repPop, simPop, "replay", "sim")

	// The sampled-rate tracer must have left exemplars on some hot entries
	// (trace IDs are shared across pipelines by construction; DeepEqual
	// above already proved they match).
	var exemplars int
	for _, s := range simPop {
		for _, e := range s.TopK {
			if e.Exemplar.Valid() {
				exemplars++
			}
		}
	}
	if exemplars == 0 {
		t.Error("no exemplars attached to any top-K entry")
	}
}

// TestSketchTopKParityConcurrentVsSequential: the pipelined window commits
// in request order, so it must build exactly the sequential replay's top-K
// summaries — across a kill and a revival, where the window drains.
func TestSketchTopKParityConcurrentVsSequential(t *testing.T) {
	// A short trace (two scheduler epochs) over few cities keeps distinct
	// serving satellites ≤ 32 and every summary in the no-eviction regime.
	h, users, tr := sketchParityEnv(t, 6000, 4, 30, 43)
	const capacity = 64 << 20

	// A mid-trace kill and its revival are two drain points.
	victim := h.NearestOwner(0, h.BucketOf(tr.Requests[0].Object))
	failures := []sim.FailureEvent{
		{TimeSec: 10, Sat: victim, Down: true},
		{TimeSec: 20, Sat: victim, Down: false},
	}

	run := func(concurrent bool) map[string]obs.SeriesSnapshot {
		reg := obs.NewRegistry()
		cluster, err := NewCluster(cache.LRU, capacity)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		opts := Options{
			Hashing: true, Relay: true, Seed: 9, Obs: reg, Sketches: true,
			Fault: &FaultPolicy{}, Failures: failures,
			Tracer: obs.NewTracer(io.Discard, 0.25, 11),
		}
		if concurrent {
			_, err = ReplayConcurrent(h, cluster, users, tr, opts)
		} else {
			_, err = Replay(h, cluster, users, tr, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return popularitySeries(t, reg)
	}

	seq := run(false)
	con := run(true)
	comparePopularity(t, con, seq, "concurrent", "sequential")
}
