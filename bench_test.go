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
	"os"
	"sync"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/experiments"
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

// BenchmarkSimHotPath is the sim's allocation gate (budgeted in
// BENCH_core.json): one seeded StarCDN sim.Run (hashing+relay, LRU) over the
// shared production trace per iteration, with all observability off — the
// decision pipeline every experiment above pays per request. starcdn-bench
// runs it once, cold, and judges only its allocs/op; benchmark/'s
// sim_sparse_video workload times the same trace. SetBytes counts requests,
// so the reported MB/s reads as Mreq/s.
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
