package starcdn

import (
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/experiments"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
)

// BenchmarkSimHotPath is the sim's allocation gate (budgeted in
// BENCH_core.json): one seeded StarCDN sim.Run (hashing+relay, LRU) over the
// Small-scale production trace per iteration, with all observability off —
// the decision pipeline every experiment pays per request. starcdn-bench
// runs it once, cold, and judges only its allocs/op; benchmark/'s
// sim_sparse_video workload times the same trace. SetBytes counts requests,
// so the reported MB/s reads as Mreq/s.
func BenchmarkSimHotPath(b *testing.B) {
	e := experiments.NewEnv(experiments.Small())
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
