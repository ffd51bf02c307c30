package starcdn_test

import (
	"fmt"
	"log"

	"starcdn"
)

// Example runs the paper's evaluation pipeline at toy scale: a
// production-like video trace over the nine cities, SpaceGEN fitted to it
// and run for twice its length, and the synthetic trace replayed under a
// naive per-satellite LRU and under StarCDN on the 1,170-satellite shell.
func Example() {
	sys, err := starcdn.NewSystem(starcdn.SystemOptions{Buckets: 4, Outage: 126, OutageSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	class := starcdn.VideoClass()
	class.NumObjects = 2000
	prod, err := starcdn.GenerateWorkload(class, sys.Cities, 42, 20_000, 1800)
	if err != nil {
		log.Fatal(err)
	}
	models, err := starcdn.FitModels(prod) // footprint descriptors (§4)
	if err != nil {
		log.Fatal(err)
	}
	syn, err := starcdn.GenerateSynthetic(models, 7, 40_000) // SpaceGEN's Algorithm 1
	if err != nil {
		log.Fatal(err)
	}
	cacheCfg := starcdn.CacheConfig{Kind: starcdn.LRU, Bytes: 256 << 20}
	for _, p := range []starcdn.Policy{sys.NaiveLRU(cacheCfg), sys.StarCDN(cacheCfg)} {
		m, err := sys.Simulate(syn, p, starcdn.SimConfig{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s request hit rate %.4f  uplink %.4f of no-cache\n",
			p.Name(), m.Meter.RequestHitRate(), m.UplinkFraction())
	}
	// Output:
	// naive-lru  request hit rate 0.4691  uplink 0.5911 of no-cache
	// starcdn-L4 request hit rate 0.5764  uplink 0.4341 of no-cache
}
