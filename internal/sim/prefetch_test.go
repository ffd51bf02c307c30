package sim

import (
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/trace"
)

func TestPrefetchStatsAccounting(t *testing.T) {
	s := &PrefetchStats{}
	if s.UsefulFraction() != 0 {
		t.Error("empty stats useful fraction should be 0")
	}
	s.Transferred = 4
	s.Used = 1
	if s.UsefulFraction() != 0.25 {
		t.Errorf("useful fraction = %v", s.UsefulFraction())
	}
}

func TestPrefetchPolicyRunsAndTransfers(t *testing.T) {
	e := newEnv(t, 50000, 5400)
	h, err := core.NewHashScheme(e.grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewStarCDN(h, CacheConfig{Kind: cache.LRU, Bytes: 128 << 20},
		StarCDNOptions{Hashing: true, Prefetch: true, PrefetchCount: 16})
	if p.Name() != "starcdn-prefetch-L4" {
		t.Errorf("name = %s", p.Name())
	}
	m, err := Run(e.c, e.users, e.tr, p, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := p.PrefetchStats()
	if st.Transferred == 0 || st.TransferredBytes == 0 {
		t.Fatal("prefetcher never transferred anything")
	}
	if st.Used > st.Transferred {
		t.Errorf("used (%d) cannot exceed transferred (%d)", st.Used, st.Transferred)
	}
	// §3.3's argument: prefetching wastes a large share of its transfers.
	if st.UsefulFraction() > 0.9 {
		t.Errorf("useful fraction %.2f suspiciously high", st.UsefulFraction())
	}
	if m.Meter.RequestHitRate() <= 0 {
		t.Error("no hits at all under prefetch")
	}
}

func TestPrefetchLessEfficientThanRelay(t *testing.T) {
	// The paper's §3.3 conclusion: relayed fetch beats proactive prefetch
	// in hit rate for the same resources.
	e := newEnv(t, 60000, 5400)
	const capacity = 128 << 20
	newPolicy := func(opts StarCDNOptions) *StarCDN {
		h, err := core.NewHashScheme(e.grid, 4)
		if err != nil {
			t.Fatal(err)
		}
		return NewStarCDN(h, CacheConfig{Kind: cache.LRU, Bytes: capacity}, opts)
	}
	relay := newPolicy(StarCDNOptions{Hashing: true, Relay: true})
	prefetch := newPolicy(StarCDNOptions{Hashing: true, Prefetch: true, PrefetchCount: 32})
	mr, err := Run(e.c, e.users, e.tr, relay, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Run(e.c, e.users, e.tr, prefetch, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("relay RHR=%.3f prefetch RHR=%.3f (useful=%.2f)",
		mr.Meter.RequestHitRate(), mp.Meter.RequestHitRate(),
		prefetchUseful(prefetch))
	if mp.Meter.RequestHitRate() > mr.Meter.RequestHitRate()+0.02 {
		t.Errorf("prefetch (%.3f) should not beat relayed fetch (%.3f) (paper §3.3)",
			mp.Meter.RequestHitRate(), mr.Meter.RequestHitRate())
	}
}

func TestFailureScheduleTransientVsLongTerm(t *testing.T) {
	e := newEnv(t, 30000, 3600)
	h, err := core.NewHashScheme(e.grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a satellite that will own traffic and fail it mid-run.
	victim := e.c.SatAt(30, 10)
	mk := func(transient bool) []FailureEvent {
		return []FailureEvent{
			{TimeSec: 600, Sat: victim, Down: true, Transient: transient},
			{TimeSec: 2400, Sat: victim, Down: false},
		}
	}
	for _, transient := range []bool{true, false} {
		p := NewStarCDN(h, CacheConfig{Kind: cache.LRU, Bytes: 128 << 20},
			StarCDNOptions{Hashing: true, Relay: true})
		m, err := Run(e.c, e.users, e.tr, p, Config{Seed: 4, Failures: mk(transient)})
		if err != nil {
			t.Fatalf("transient=%v: %v", transient, err)
		}
		if m.Meter.Requests != int64(e.tr.Len()) {
			t.Fatalf("transient=%v: requests=%d", transient, m.Meter.Requests)
		}
		// The victim must be reactivated at the end.
		if !e.c.Active(victim) {
			t.Fatalf("victim not restored after schedule")
		}
		// Dead satellite must never serve during its outage window; with
		// CollectPerSat we can assert nothing was attributed to it while
		// down (it may serve before/after, so just assert the run worked).
		if m.Meter.RequestHitRate() <= 0 {
			t.Errorf("transient=%v: zero hit rate", transient)
		}
	}
}

func TestFailureEventsApplyInOrder(t *testing.T) {
	e := newEnv(t, 100, 60)
	tr := &trace.Trace{Locations: e.tr.Locations}
	for i := 0; i < 50; i++ {
		tr.Append(trace.Request{TimeSec: float64(i), Object: 1, Size: 100, Location: 0})
	}
	victim := orbit0(e)
	failures := []FailureEvent{
		{TimeSec: 10, Sat: victim, Down: true, Transient: true},
		{TimeSec: 20, Sat: victim, Down: false},
	}
	p := NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20})
	if _, err := Run(e.c, e.users, tr, p, Config{Seed: 1, Failures: failures}); err != nil {
		t.Fatal(err)
	}
	if !e.c.Active(victim) {
		t.Error("failure schedule left the victim down")
	}
}

func orbit0(e *testEnv) orbit.SatID { return e.c.SatAt(0, 0) }

func prefetchUseful(p *StarCDN) float64 {
	st := p.PrefetchStats()
	return st.UsefulFraction()
}

func TestRunDeterministicPerSeed(t *testing.T) {
	e := newEnv(t, 15000, 1800)
	run := func(seed int64) *Metrics {
		h, err := core.NewHashScheme(e.grid, 4)
		if err != nil {
			t.Fatal(err)
		}
		p := NewStarCDN(h, CacheConfig{Kind: cache.LRU, Bytes: 64 << 20},
			StarCDNOptions{Hashing: true, Relay: true})
		m, err := Run(e.c, e.users, e.tr, p, Config{Seed: seed, CollectLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(5), run(5)
	if a.Meter != b.Meter {
		t.Errorf("same seed, different meters: %+v vs %+v", a.Meter, b.Meter)
	}
	if a.UplinkBytes != b.UplinkBytes || a.ISLBytes != b.ISLBytes {
		t.Error("same seed, different byte accounting")
	}
	if a.Latency.Median() != b.Latency.Median() {
		t.Error("same seed, different latency distribution")
	}
	c := run(6)
	if a.Meter == c.Meter && a.Latency.Median() == c.Latency.Median() {
		t.Error("different seeds produced identical runs")
	}
}

func TestGroundEdgePolicy(t *testing.T) {
	e := newEnv(t, 15000, 1800)
	if _, err := NewGroundEdgeCDN(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20}, nil, e.users); err == nil {
		t.Error("no ground stations accepted")
	}
	p, err := NewGroundEdgeCDN(CacheConfig{Kind: cache.LRU, Bytes: 256 << 20},
		geo.DefaultGroundStations(), e.users)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "ground-edge" {
		t.Errorf("name = %s", p.Name())
	}
	m, err := Run(e.c, e.users, e.tr, p, Config{Seed: 6, CollectLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	// Hits happen (the cache works) ...
	if m.BySource[SourceGroundEdge] == 0 {
		t.Fatal("ground-edge cache never hit")
	}
	// ... but the uplink is not saved at all (§7): every request's bytes
	// cross the ground-satellite link.
	if m.UplinkFraction() < 0.999 {
		t.Errorf("ground-edge uplink fraction = %v, want ~1", m.UplinkFraction())
	}
	// And latency improves over pure bent-pipe.
	nc, err := Run(e.c, e.users, e.tr, NoCacheBentPipe{}, Config{Seed: 6, CollectLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency.Median() >= nc.Latency.Median() {
		t.Errorf("ground-edge median %.1f should beat no-cache %.1f",
			m.Latency.Median(), nc.Latency.Median())
	}
}
