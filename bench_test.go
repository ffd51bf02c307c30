// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment at the Small scale and
// prints the full report (series measured here next to the values the paper
// reports). Run with:
//
//	go test -bench=. -benchmem
//
// Set STARCDN_SCALE=medium for the larger overnight configuration.
package starcdn

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/experiments"
	"starcdn/internal/obs"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns the process-wide experiment environment so traces and
// simulation results are shared across benchmarks.
func env() *experiments.Env {
	benchEnvOnce.Do(func() {
		scale := experiments.Small()
		if os.Getenv("STARCDN_SCALE") == "medium" {
			scale = experiments.Medium()
		}
		benchEnv = experiments.NewEnv(scale)
	})
	return benchEnv
}

// runExperiment executes one registry experiment per benchmark iteration and
// prints its report once.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e := env()
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = experiments.Run(e, name)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n", out)
}

func BenchmarkTable1Links(b *testing.B)            { runExperiment(b, "table1") }
func BenchmarkTable2Overlap(b *testing.B)          { runExperiment(b, "table2") }
func BenchmarkFig2OverlapDistance(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig3GroundTracks(b *testing.B)       { runExperiment(b, "fig3") }
func BenchmarkFig5bConstellation(b *testing.B)     { runExperiment(b, "fig5b") }
func BenchmarkFig6SpreadsAndHitRates(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7HitRateCurvesL4(b *testing.B)    { runExperiment(b, "fig7-l4") }
func BenchmarkFig7HitRateCurvesL9(b *testing.B)    { runExperiment(b, "fig7-l9") }
func BenchmarkFig8Uplink(b *testing.B)             { runExperiment(b, "fig8") }
func BenchmarkTable3RelaySource(b *testing.B)      { runExperiment(b, "table3") }
func BenchmarkFig9BucketTradeoff(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFig10LatencyCDFL4(b *testing.B)      { runExperiment(b, "fig10-l4") }
func BenchmarkFig10LatencyCDFL9(b *testing.B)      { runExperiment(b, "fig10-l9") }
func BenchmarkFig11FaultTolerance(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12Web(b *testing.B)               { runExperiment(b, "fig12-web") }
func BenchmarkFig12Download(b *testing.B)          { runExperiment(b, "fig12-download") }
func BenchmarkFig13FetchValidation(b *testing.B)   { runExperiment(b, "fig13") }

// Ablation benches for the design choices DESIGN.md calls out (§3.2 eviction
// neutrality, §3.3 relay-vs-prefetch, §3.4 transient-vs-remap).
func BenchmarkAblationEviction(b *testing.B)      { runExperiment(b, "ablation-eviction") }
func BenchmarkAblationPrefetch(b *testing.B)      { runExperiment(b, "ablation-prefetch") }
func BenchmarkAblationFailure(b *testing.B)       { runExperiment(b, "ablation-failure") }
func BenchmarkAblationGroundEdge(b *testing.B)    { runExperiment(b, "ablation-groundedge") }
func BenchmarkExtraUplinkTimeseries(b *testing.B) { runExperiment(b, "extra-uplink") }
func BenchmarkExtraSessionMigration(b *testing.B) { runExperiment(b, "extra-session") }
func BenchmarkAblationAdmission(b *testing.B)     { runExperiment(b, "ablation-admission") }
func BenchmarkExtraCongestion(b *testing.B)       { runExperiment(b, "extra-congestion") }
func BenchmarkExtraMixedClasses(b *testing.B)     { runExperiment(b, "extra-mixed") }
func BenchmarkExtraColoring(b *testing.B)         { runExperiment(b, "extra-coloring") }

// BenchmarkSimHotPath is the core perf baseline (recorded in
// BENCH_core.json): one seeded StarCDN sim.Run (hashing+relay, LRU) over the
// shared production trace per iteration, with all observability off. This is
// the pure decision-pipeline cost — scheduler lookup, hash ownership, cache
// ops, latency model — that every experiment above pays per request.
// SetBytes counts requests, so the reported MB/s reads as Mreq/s.
func BenchmarkSimHotPath(b *testing.B) {
	e := env()
	tr, err := e.ProductionTrace("video")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Constellation("bench-hotpath")
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		b.Fatal(err)
	}
	users := e.Users()
	b.SetBytes(int64(len(tr.Requests)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sim.NewStarCDN(h, sim.CacheConfig{
			Kind: cache.LRU, Bytes: e.Scale.LatencyCacheSize,
		}, sim.StarCDNOptions{Hashing: true, Relay: true})
		if _, err := sim.Run(c, users, tr, p, sim.Config{Seed: e.Scale.Seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead measures what the observability layer costs the
// simulator's hot path (see BENCH_obs.json for recorded numbers). Three
// variants run the identical seeded sim.Run:
//
//	off     — nil registry, nil tracer (instrument calls no-op on nil
//	          receivers; must be indistinguishable from the pre-obs baseline)
//	metrics — live registry: per-source counters, latency histogram, and
//	          per-satellite hit-rate gauges updated on every request
//	trace   — registry plus a rate-1 tracer serialising every span to
//	          io.Discard (the worst case: JSON encode per request)
//	recorder — registry plus a flight recorder snapshotting every series on
//	          a 15s simulated epoch (the /timeseries.json + SLO data source)
//	phases+runtime — registry, recorder, the hot-path phase profiler
//	          (obs.NewSimPhases marking every stage boundary) and the
//	          runtime-metrics bridge, both flushing per recorder epoch —
//	          the full performance-observability deployment
//
// The acceptance bars are differences in ns per request between variants,
// stated next to their data in BENCH_obs.json.
func BenchmarkObsOverhead(b *testing.B) {
	e := env()
	tr, err := e.ProductionTrace("video")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Constellation("bench-obs")
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		b.Fatal(err)
	}
	users := e.Users()

	variants := []struct {
		name string
		cfg  func() sim.Config
	}{
		{"off", func() sim.Config {
			return sim.Config{Seed: e.Scale.Seed}
		}},
		{"metrics", func() sim.Config {
			return sim.Config{Seed: e.Scale.Seed, Metrics: obs.NewRegistry()}
		}},
		{"metrics+trace", func() sim.Config {
			return sim.Config{
				Seed:    e.Scale.Seed,
				Metrics: obs.NewRegistry(),
				Tracer:  obs.NewTracer(io.Discard, 1, 1),
			}
		}},
		{"metrics+recorder", func() sim.Config {
			// Flight recorder at a 15s simulated epoch: the sim clock drives
			// TickAt per request, snapshotting every registry series into the
			// ring. The byte-identical assertion below doubles as the proof
			// that recording cannot change results.
			reg := obs.NewRegistry()
			return sim.Config{
				Seed:    e.Scale.Seed,
				Metrics: reg,
				Recorder: obs.NewRecorder(reg, obs.RecorderOptions{
					EpochSec: 15, Capacity: 1024,
				}),
			}
		}},
		{"metrics+phases+runtime", func() sim.Config {
			// The full performance-observability stack: phase profiler marking
			// every stage boundary on every request, runtime bridge sampling
			// runtime/metrics, both flushed inside each recorder epoch. The
			// byte-identical assertion below is the proof the timers cannot
			// change results.
			reg := obs.NewRegistry()
			rec := obs.NewRecorder(reg, obs.RecorderOptions{
				EpochSec: 15, Capacity: 1024,
			})
			ph := obs.NewSimPhases(reg)
			ph.BindRecorder(rec)
			rt := obs.NewRuntimeBridge(reg)
			rt.BindRecorder(rec)
			return sim.Config{
				Seed:     e.Scale.Seed,
				Metrics:  reg,
				Recorder: rec,
				Phases:   ph,
			}
		}},
	}
	var baseline *sim.Metrics
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var m *sim.Metrics
			b.SetBytes(int64(len(tr.Requests)))
			for i := 0; i < b.N; i++ {
				// Fresh policy per iteration: cache state must not carry over.
				p := sim.NewStarCDN(h, sim.CacheConfig{
					Kind: cache.LRU, Bytes: e.Scale.LatencyCacheSize,
				}, sim.StarCDNOptions{Hashing: true, Relay: true})
				var err error
				m, err = sim.Run(c, users, tr, p, v.cfg())
				if err != nil {
					b.Fatal(err)
				}
			}
			// Instrumentation must not change a single result.
			if baseline == nil {
				baseline = m
			} else if m.Meter != baseline.Meter || m.UplinkBytes != baseline.UplinkBytes ||
				m.ISLBytes != baseline.ISLBytes {
				b.Fatalf("variant %s changed results: meter %+v uplink %d isl %d, baseline meter %+v uplink %d isl %d",
					v.name, m.Meter, m.UplinkBytes, m.ISLBytes,
					baseline.Meter, baseline.UplinkBytes, baseline.ISLBytes)
			}
		})
	}
}

// BenchmarkSketchOverhead measures what the streaming-sketch telemetry adds
// on top of a metrics-equipped sim.Run (recorded in BENCH_obs.json). Two
// variants run the identical seeded simulation:
//
//	metrics          — live registry, no sketches (the BenchmarkObsOverhead
//	                   "metrics" configuration; the comparison baseline)
//	metrics+sketches — Config.Sketches on: three top-K popularity summaries
//	                   (objects, satellites, buckets — one Space-Saving
//	                   summary each) and one serve-latency quantile sketch,
//	                   all fed every request
//
// The acceptance bar, in ns per request over metrics-only, is stated next to
// its data in BENCH_obs.json. Results must stay identical — the assertion
// below is the bench-side half of the byte-identical-reports contract
// (experiments.TestObsDoesNotChangeReports is the report-side half).
func BenchmarkSketchOverhead(b *testing.B) {
	e := env()
	tr, err := e.ProductionTrace("video")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Constellation("bench-sketch")
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		b.Fatal(err)
	}
	users := e.Users()

	variants := []struct {
		name     string
		sketches bool
	}{
		{"metrics", false},
		{"metrics+sketches", true},
	}
	var baseline *sim.Metrics
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var m *sim.Metrics
			b.SetBytes(int64(len(tr.Requests)))
			for i := 0; i < b.N; i++ {
				// Fresh policy per iteration: cache state must not carry over.
				p := sim.NewStarCDN(h, sim.CacheConfig{
					Kind: cache.LRU, Bytes: e.Scale.LatencyCacheSize,
				}, sim.StarCDNOptions{Hashing: true, Relay: true})
				var err error
				m, err = sim.Run(c, users, tr, p, sim.Config{
					Seed: e.Scale.Seed, Metrics: obs.NewRegistry(), Sketches: v.sketches,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			// Sketches must not change a single result.
			if baseline == nil {
				baseline = m
			} else if m.Meter != baseline.Meter || m.UplinkBytes != baseline.UplinkBytes ||
				m.ISLBytes != baseline.ISLBytes {
				b.Fatalf("variant %s changed results: meter %+v uplink %d isl %d, baseline meter %+v uplink %d isl %d",
					v.name, m.Meter, m.UplinkBytes, m.ISLBytes,
					baseline.Meter, baseline.UplinkBytes, baseline.ISLBytes)
			}
		})
	}
}
