package experiments

import (
	"testing"

	"starcdn/internal/sim"
)

// TestHeadlineShapes asserts the paper's qualitative results through the
// same pipeline the benches use (workload -> scheduler -> policies), rather
// than reading the printed reports: scheme ordering, uplink savings, bucket
// monotonicity, and the relay direction bias.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shapes in short mode")
	}
	e := NewEnv(tinyScale())
	tr, err := e.ProductionTrace("video")
	if err != nil {
		t.Fatal(err)
	}
	size := e.Scale.CacheSizes[len(e.Scale.CacheSizes)-1]
	cfg := sim.Config{Seed: e.Scale.Seed}

	run := func(scheme string, l int) *sim.Metrics {
		m, err := e.runScheme("shapes", scheme, l, size, tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		return m
	}

	lru := run("lru", 0)
	relayOnly := run("starcdn-hashing", 4)
	fetch := run("starcdn-fetch", 9)
	full := run("starcdn", 9)

	// Fig. 7 ordering: every StarCDN mechanism adds hit rate over LRU.
	if !(lru.Meter.RequestHitRate() < relayOnly.Meter.RequestHitRate() &&
		relayOnly.Meter.RequestHitRate() < fetch.Meter.RequestHitRate() &&
		fetch.Meter.RequestHitRate() < full.Meter.RequestHitRate()) {
		t.Errorf("Fig.7 ordering broken: lru=%.3f relay-only=%.3f hashing-only=%.3f full=%.3f",
			lru.Meter.RequestHitRate(), relayOnly.Meter.RequestHitRate(),
			fetch.Meter.RequestHitRate(), full.Meter.RequestHitRate())
	}

	// Fig. 8: StarCDN saves a large share of the uplink vs LRU and vs 100%.
	if full.UplinkFraction() >= lru.UplinkFraction() {
		t.Errorf("Fig.8: StarCDN uplink %.3f should undercut LRU %.3f",
			full.UplinkFraction(), lru.UplinkFraction())
	}
	if full.UplinkFraction() > 0.7 {
		t.Errorf("Fig.8: StarCDN uplink fraction %.3f too high", full.UplinkFraction())
	}

	// Fig. 9: hit rate grows with L at fixed cache size.
	prev := -1.0
	for _, l := range []int{1, 4, 9} {
		m := run("starcdn", l)
		if m.Meter.RequestHitRate() <= prev {
			t.Errorf("Fig.9: hit rate not monotone at L=%d (%.3f <= %.3f)",
				l, m.Meter.RequestHitRate(), prev)
		}
		prev = m.Meter.RequestHitRate()
	}

	// Table 3 / §5.2.2: west relays dominate east relays.
	if full.BySource[sim.SourceRelayWest] <= full.BySource[sim.SourceRelayEast] {
		t.Errorf("relay bias: west=%d east=%d",
			full.BySource[sim.SourceRelayWest], full.BySource[sim.SourceRelayEast])
	}
}
