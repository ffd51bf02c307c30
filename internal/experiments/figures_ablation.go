package experiments

import (
	"fmt"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/orbit"
	"starcdn/internal/sim"
)

// AblationEviction evaluates §3.2's claim that StarCDN's consistent hashing
// "accommodates any cache replacement scheme": it runs full StarCDN (L=4)
// with LRU, LFU, FIFO, and SIEVE per-satellite caches.
func AblationEviction(e *Env) (string, error) {
	tr, err := e.ProductionTrace("video")
	if err != nil {
		return "", err
	}
	b := report("Ablation: eviction policy under StarCDN (L=4)",
		"§3.2: the hashing scheme accommodates any replacement policy "+
			"(LRU, LFU, Sieve, ...); orderings follow single-cache behaviour")
	kinds := []cache.Kind{cache.LRU, cache.LFU, cache.FIFO, cache.SIEVE}
	fmt.Fprintf(b, "%-10s", "cache")
	for _, k := range kinds {
		fmt.Fprintf(b, "%12s", k)
	}
	fmt.Fprintln(b)
	for _, size := range e.Scale.CacheSizes {
		fmt.Fprintf(b, "%-10s", gb(size))
		for _, k := range kinds {
			h, err := core.NewHashScheme(e.grid("abl-evict"), 4)
			if err != nil {
				return "", err
			}
			p := sim.NewStarCDN(h, sim.CacheConfig{Kind: k, Bytes: size},
				sim.StarCDNOptions{Hashing: true, Relay: true})
			m, err := sim.Run(e.Constellation("abl-evict"), e.Users(), tr, p,
				sim.Config{Seed: e.Scale.Seed})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(b, "%11.1f%%", 100*m.Meter.RequestHitRate())
		}
		fmt.Fprintln(b)
	}
	return b.String(), nil
}

// AblationPrefetch quantifies §3.3's design decision: reactive relayed fetch
// against proactive prefetching from the west neighbour, reporting hit rate
// and the ISL bytes the prefetcher spends on content that is never used.
func AblationPrefetch(e *Env) (string, error) {
	tr, err := e.ProductionTrace("video")
	if err != nil {
		return "", err
	}
	b := report("Ablation: relayed fetch vs proactive prefetch (L=4)",
		"§3.3: prefetching risks stale content — wasted cache space, power, "+
			"and ISL bandwidth; relayed fetch won on hit rate")
	fmt.Fprintf(b, "%-10s %14s %16s %16s %14s %12s\n",
		"cache", "relay RHR", "prefetch RHR", "prefetched MB", "useful frac", "waste MB")
	for _, size := range e.Scale.CacheSizes {
		relay, err := e.runScheme("abl-prefetch", "starcdn", 4, size, tr,
			sim.Config{Seed: e.Scale.Seed})
		if err != nil {
			return "", err
		}
		h, err := core.NewHashScheme(e.grid("abl-prefetch"), 4)
		if err != nil {
			return "", err
		}
		pp := sim.NewStarCDN(h, sim.CacheConfig{Kind: cache.LRU, Bytes: size},
			sim.StarCDNOptions{Hashing: true, Prefetch: true, PrefetchCount: 32})
		pm, err := sim.Run(e.Constellation("abl-prefetch"), e.Users(), tr, pp,
			sim.Config{Seed: e.Scale.Seed})
		if err != nil {
			return "", err
		}
		st := pp.PrefetchStats()
		useful := st.UsefulFraction()
		wasteMB := float64(st.TransferredBytes) * (1 - useful) / (1 << 20)
		fmt.Fprintf(b, "%-10s %13.1f%% %15.1f%% %16.1f %14.2f %12.1f\n",
			gb(size), 100*relay.Meter.RequestHitRate(), 100*pm.Meter.RequestHitRate(),
			float64(st.TransferredBytes)/(1<<20), useful, wasteMB)
	}
	return b.String(), nil
}

// AblationFailureMode compares §3.4's two failure responses on the same
// outage: treating the failed satellites as transient (requests served as
// ground misses) versus long-term (buckets remapped to live neighbours).
func AblationFailureMode(e *Env) (string, error) {
	tr, err := e.ProductionTrace("video")
	if err != nil {
		return "", err
	}
	b := report("Ablation: transient miss-through vs long-term remap (L=9, 126 dead sats)",
		"§3.4: transient failures are served from the ground; long-term ones remap "+
			"buckets, preserving most of the hit rate")
	size := e.Scale.LatencyCacheSize

	// Build the failure schedule: the same 126 satellites go down right at
	// the start, marked transient in one run and long-term in the other.
	c := e.Constellation("abl-fail")
	c.ApplyOutageMask(126, e.Scale.Seed)
	var dead []sim.FailureEvent
	for id := range orbit.SatID(c.NumSlots()) {
		if !c.Active(id) {
			dead = append(dead, sim.FailureEvent{TimeSec: 0, Sat: id, Down: true})
		}
	}
	c.ApplyOutageMask(0, e.Scale.Seed)

	fmt.Fprintf(b, "%-12s %10s %10s %12s\n", "mode", "RHR", "BHR", "uplink")
	for _, transient := range []bool{true, false} {
		events := make([]sim.FailureEvent, len(dead))
		copy(events, dead)
		for i := range events {
			events[i].Transient = transient
		}
		h, err := core.NewHashScheme(e.grid("abl-fail"), 9)
		if err != nil {
			return "", err
		}
		p := sim.NewStarCDN(h, sim.CacheConfig{Kind: cache.LRU, Bytes: size},
			sim.StarCDNOptions{Hashing: true, Relay: true})
		m, err := sim.Run(c, e.Users(), tr, p,
			sim.Config{Seed: e.Scale.Seed, Failures: events})
		if err != nil {
			return "", err
		}
		mode := "remap"
		if transient {
			mode = "transient"
		}
		fmt.Fprintf(b, "%-12s %9.1f%% %9.1f%% %11.1f%%\n", mode,
			100*m.Meter.RequestHitRate(), 100*m.Meter.ByteHitRate(),
			100*m.UplinkFraction())
		// Restore for the second pass.
		c.ApplyOutageMask(0, e.Scale.Seed)
	}
	return b.String(), nil
}
