package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// testEnv bundles the common simulation fixtures.
type testEnv struct {
	c     *orbit.Constellation
	grid  *topo.Grid
	users []geo.Point
	tr    *trace.Trace
}

func newEnv(t *testing.T, requests int, durSec float64) *testEnv {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	grid := topo.NewGrid(c, topo.StarlinkTable1())
	cities := geo.PaperCities()
	users := make([]geo.Point, len(cities))
	for i, city := range cities {
		users[i] = city.Point
	}
	cls := workload.Video()
	cls.NumObjects = 5000
	cls.SizeSigma = 0.6
	cls.MaxSizeBytes = 8 << 20
	g, err := workload.NewGenerator(cls, cities, 21)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(requests, durSec)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{c: c, grid: grid, users: users, tr: tr}
}

func (e *testEnv) starcdn(t *testing.T, l int, cacheBytes int64, opts StarCDNOptions) *StarCDN {
	t.Helper()
	h, err := core.NewHashScheme(e.grid, l)
	if err != nil {
		t.Fatal(err)
	}
	return NewStarCDN(h, CacheConfig{Kind: cache.LRU, Bytes: cacheBytes}, opts)
}

func TestRunValidation(t *testing.T) {
	e := newEnv(t, 1000, 600)
	cfg := Config{Seed: 1}
	if _, err := Run(nil, e.users, e.tr, NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20}), cfg); err == nil {
		t.Error("nil constellation should fail")
	}
	if _, err := Run(e.c, e.users, e.tr, nil, cfg); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := Run(e.c, e.users[:2], e.tr, NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20}), cfg); err == nil {
		t.Error("user/location mismatch should fail")
	}
	// Run owns these through trace.Validate: the cache admit and the meters
	// assume positive sizes, and the epoch memos, failure cursor and
	// congestion windows a finite, forward-only clock.
	for _, bad := range []struct {
		name string
		reqs []trace.Request
	}{
		{"size 0", []trace.Request{{TimeSec: 0, Object: 1, Size: 0, Location: 0}}},
		{"backwards clock", []trace.Request{
			{TimeSec: 5, Object: 1, Size: 100, Location: 0},
			{TimeSec: 4, Object: 2, Size: 100, Location: 0}}},
		{"NaN time", []trace.Request{{TimeSec: math.NaN(), Object: 1, Size: 100, Location: 0}}},
		{"infinite time", []trace.Request{
			{TimeSec: 5, Object: 1, Size: 100, Location: 0},
			{TimeSec: math.Inf(1), Object: 2, Size: 100, Location: 0}}},
	} {
		tr := &trace.Trace{Locations: e.tr.Locations, Requests: bad.reqs}
		if _, err := Run(e.c, e.users, tr, NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20}), cfg); err == nil {
			t.Errorf("%s: invalid trace should fail", bad.name)
		}
	}
}

func TestNaiveLRUHitsRepeats(t *testing.T) {
	e := newEnv(t, 1000, 600)
	// A trace that repeats one object rapidly from one location must mostly
	// hit once warmed, because the first-contact satellite is stable within
	// a 15 s epoch.
	tr := &trace.Trace{Locations: e.tr.Locations}
	for i := 0; i < 100; i++ {
		tr.Append(trace.Request{TimeSec: float64(i) * 0.1, Object: 42, Size: 1000, Location: 4})
	}
	m, err := Run(e.c, e.users, tr, NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20}), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Meter.RequestHitRate() < 0.9 {
		t.Errorf("repeat hit rate = %v, want >= 0.9", m.Meter.RequestHitRate())
	}
	if m.Meter.Requests != 100 {
		t.Errorf("requests = %d", m.Meter.Requests)
	}
}

// TestOneBucketLadderIsNaiveLRU keeps the §5.1 baseline as the independent
// reference for the ladder over core.OneBucket: with hashing and relay off,
// StarCDN is an uncoordinated cache per first contact, and must produce the
// metrics NaiveLRU's 25 lines do — every latency sample and per-satellite
// meter, so also the same seeded draws in the same order.
func TestOneBucketLadderIsNaiveLRU(t *testing.T) {
	e := newEnv(t, 20000, 1800)
	const cacheBytes = 64 << 20
	cfg := Config{Seed: 7, CollectLatency: true, CollectPerSat: true}
	naive, err := Run(e.c, e.users, e.tr, NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: cacheBytes}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := Run(e.c, e.users, e.tr, e.starcdn(t, 4, cacheBytes, StarCDNOptions{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Meter.Hits == 0 || naive.Meter.Hits == naive.Meter.Requests {
		t.Fatalf("degenerate fixture: %d hits of %d", naive.Meter.Hits, naive.Meter.Requests)
	}
	if !reflect.DeepEqual(naive, ladder) {
		t.Errorf("metrics differ:\n naive  %+v\n ladder %+v", naive.Meter, ladder.Meter)
	}
}

func TestSchemeOrderingMatchesPaper(t *testing.T) {
	// Fig. 7's qualitative result: Static >= StarCDN >= StarCDN-Fetch >=
	// LRU (allowing small noise at test scale).
	e := newEnv(t, 80000, 5400)
	const cacheBytes = 192 << 20
	cfg := Config{Seed: 11}

	run := func(p Policy) *Metrics {
		m, err := Run(e.c, e.users, e.tr, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lru := run(NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: cacheBytes}))
	fetch := run(e.starcdn(t, 4, cacheBytes, StarCDNOptions{Hashing: true}))
	full := run(e.starcdn(t, 4, cacheBytes, StarCDNOptions{Hashing: true, Relay: true}))
	static := run(NewStaticCache(CacheConfig{Kind: cache.LRU, Bytes: cacheBytes}))

	t.Logf("LRU=%v fetch=%v full=%v static=%v",
		lru.Meter.RequestHitRate(), fetch.Meter.RequestHitRate(),
		full.Meter.RequestHitRate(), static.Meter.RequestHitRate())

	if full.Meter.RequestHitRate() <= lru.Meter.RequestHitRate() {
		t.Errorf("StarCDN (%.3f) must beat naive LRU (%.3f)",
			full.Meter.RequestHitRate(), lru.Meter.RequestHitRate())
	}
	if fetch.Meter.RequestHitRate() <= lru.Meter.RequestHitRate() {
		t.Errorf("StarCDN-Fetch (%.3f) must beat naive LRU (%.3f)",
			fetch.Meter.RequestHitRate(), lru.Meter.RequestHitRate())
	}
	if full.Meter.RequestHitRate() < fetch.Meter.RequestHitRate()-0.01 {
		t.Errorf("relay (%.3f) must not hurt hashing-only (%.3f)",
			full.Meter.RequestHitRate(), fetch.Meter.RequestHitRate())
	}
	if static.Meter.RequestHitRate() < full.Meter.RequestHitRate()-0.02 {
		t.Errorf("static cache (%.3f) should upper-bound StarCDN (%.3f)",
			static.Meter.RequestHitRate(), full.Meter.RequestHitRate())
	}
	// Uplink fraction complements byte hit rate.
	if got, want := full.UplinkFraction(), 1-full.Meter.ByteHitRate(); absf(got-want) > 1e-9 {
		t.Errorf("uplink fraction %v != 1-BHR %v", got, want)
	}
	// StarCDN must save uplink vs LRU (Fig. 8).
	if full.UplinkFraction() >= lru.UplinkFraction() {
		t.Errorf("StarCDN uplink (%.3f) should undercut LRU (%.3f)",
			full.UplinkFraction(), lru.UplinkFraction())
	}
}

func TestRelaySourcesAndTable3(t *testing.T) {
	e := newEnv(t, 60000, 5400)
	h, err := core.NewHashScheme(e.grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewStarCDN(h, CacheConfig{Kind: cache.LRU, Bytes: 128 << 20},
		StarCDNOptions{Hashing: true, Relay: true})
	var relay RelayAvailability
	p.SetRelayStats(&relay)
	got, err := Run(e.c, e.users, e.tr, p, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	relays := got.BySource[SourceRelayWest] + got.BySource[SourceRelayEast]
	if relays == 0 {
		t.Fatal("no relayed fetches at all; relay path is dead")
	}
	// §5.2.2 / Table 3: the west neighbour (which just served this region)
	// is the dominant relay source.
	if got.BySource[SourceRelayWest] <= got.BySource[SourceRelayEast] {
		t.Errorf("west relays (%d) should dominate east relays (%d)",
			got.BySource[SourceRelayWest], got.BySource[SourceRelayEast])
	}
	tally := relay.WestOnlyReq + relay.EastOnlyReq + relay.BothReq
	if tally == 0 {
		t.Error("Table 3 tally empty despite relays")
	}
	if relay.WestOnlyReq <= relay.EastOnlyReq {
		t.Errorf("west-only (%d) should exceed east-only (%d) (Table 3)",
			relay.WestOnlyReq, relay.EastOnlyReq)
	}
}

func TestLatencyOrderingMatchesFig10(t *testing.T) {
	e := newEnv(t, 40000, 3600)
	cfg := Config{Seed: 13, CollectLatency: true}
	run := func(p Policy) *Metrics {
		m, err := Run(e.c, e.users, e.tr, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	starcdn := run(e.starcdn(t, 4, 256<<20, StarCDNOptions{Hashing: true, Relay: true}))
	noCache := run(NoCacheBentPipe{})
	terrestrial := run(TerrestrialCDN{})

	ms, mn, mt := starcdn.Latency.Median(), noCache.Latency.Median(), terrestrial.Latency.Median()
	t.Logf("median latency: StarCDN=%.1f no-cache=%.1f terrestrial=%.1f", ms, mn, mt)
	// Fig. 10: StarCDN ~22 ms vs regular Starlink ~55 ms (~2.5x), with the
	// terrestrial CDN fastest.
	if ms >= mn {
		t.Errorf("StarCDN median (%.1f) must beat no-cache (%.1f)", ms, mn)
	}
	if ratio := mn / ms; ratio < 1.5 {
		t.Errorf("latency improvement = %.2fx, want >= 1.5x (paper: 2.5x)", ratio)
	}
	if mn < 40 || mn > 75 {
		t.Errorf("no-cache median = %.1f ms, want ~55 (calibration)", mn)
	}
	if mt >= ms {
		t.Errorf("terrestrial median (%.1f) should be fastest (StarCDN %.1f)", mt, ms)
	}
	// Hits are bimodal with misses: p95 exceeds median markedly.
	if starcdn.Latency.Quantile(0.95) < ms {
		t.Error("latency tail should exceed the median")
	}
}

func TestPerSatMetricsAndFaultTolerance(t *testing.T) {
	e := newEnv(t, 60000, 5400)
	e.c.ApplyOutageMask(126, 42)
	defer e.c.ApplyOutageMask(0, 42)
	h, err := core.NewHashScheme(e.grid, 9)
	if err != nil {
		t.Fatal(err)
	}
	p := NewStarCDN(h, CacheConfig{Kind: cache.LRU, Bytes: 128 << 20},
		StarCDNOptions{Hashing: true, Relay: true})
	m, err := Run(e.c, e.users, e.tr, p, Config{Seed: 17, CollectPerSat: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerSat) == 0 {
		t.Fatal("per-satellite metrics empty")
	}
	// Serving satellites must all be active (dead ones are remapped away).
	for id := range m.PerSat {
		if !e.c.Active(id) {
			t.Errorf("dead satellite %d served requests", id)
		}
	}
	// The run must still achieve a sensible hit rate under failures (§5.4).
	if m.Meter.RequestHitRate() < 0.2 {
		t.Errorf("hit rate under failures = %v, too low", m.Meter.RequestHitRate())
	}
	// Fig. 11 grouping: satellites with more duties exist.
	duties := h.Duties()
	multi := 0
	for id := range m.PerSat {
		if len(duties[id]) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-bucket serving satellites under outage")
	}
}

func TestStarCDNHashingOnlyVariant(t *testing.T) {
	// The StarCDN-Hashing ablation (relay without hashing) must run and
	// produce relays to immediate inter-orbit neighbours.
	e := newEnv(t, 40000, 3600)
	p := e.starcdn(t, 4, 128<<20, StarCDNOptions{Relay: true})
	if p.Name() != "starcdn-hashing" {
		t.Errorf("name = %s", p.Name())
	}
	m, err := Run(e.c, e.users, e.tr, p, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Meter.Requests == 0 {
		t.Fatal("no requests processed")
	}
	if m.BySource[SourceBucket] != 0 {
		t.Error("hashing disabled: no bucket-routed serves expected")
	}
}

func TestPolicyNames(t *testing.T) {
	e := newEnv(t, 100, 60)
	cases := map[string]Policy{
		"naive-lru":         NewNaiveLRU(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20}),
		"static":            NewStaticCache(CacheConfig{Kind: cache.LRU, Bytes: 1 << 20}),
		"starcdn-L4":        e.starcdn(t, 4, 1<<20, StarCDNOptions{Hashing: true, Relay: true}),
		"starcdn-fetch-L9":  e.starcdn(t, 9, 1<<20, StarCDNOptions{Hashing: true}),
		"starcdn-none":      e.starcdn(t, 4, 1<<20, StarCDNOptions{}),
		"starlink-no-cache": NoCacheBentPipe{},
		"terrestrial-cdn":   TerrestrialCDN{},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name() = %s, want %s", p.Name(), want)
		}
	}
}

func TestSourceString(t *testing.T) {
	for s := SourceLocal; s <= SourceNoCover; s++ {
		if s.String() == "" {
			t.Error("empty source name")
		}
	}
	if Source(99).String() != "Source(99)" {
		t.Error("unknown source format")
	}
}

func TestLatencyModelSamplers(t *testing.T) {
	m := DefaultLatencyModel()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if d := m.AccessDelayMs(rng); d < m.AccessMinMs || d > m.AccessMaxMs {
			t.Fatalf("access delay %v out of bounds", d)
		}
		if d := m.UserLinkRTTMs(2, rng); d < 4+2*m.AccessMinMs {
			t.Fatalf("user link RTT %v below floor", d)
		}
		if d := m.OriginRTTMs(rng); d <= 0 {
			t.Fatalf("origin RTT %v", d)
		}
		if d := m.GroundFetchRTTMs(rng); d < 2*m.Links.GSL.MinMs {
			t.Fatalf("ground fetch %v below GSL floor", d)
		}
	}
	if m.ISLPathRTTMs(0, 0, rng) != 0 {
		t.Error("zero hops should cost zero")
	}
	if d := m.ISLPathRTTMs(2, 1, rng); d < 2*2*1.32+2*4.76 {
		t.Errorf("ISL path RTT %v below floor", d)
	}
}

func TestMetricsRecordAndUplink(t *testing.T) {
	m := NewMetrics(true, true)
	m.record(5, 100, SourceLocal)
	m.record(5, 300, SourceGround)
	if m.Meter.Requests != 2 || m.Meter.Hits != 1 {
		t.Errorf("meter: %+v", m.Meter)
	}
	if m.UplinkBytes != 300 {
		t.Errorf("uplink bytes = %d", m.UplinkBytes)
	}
	if m.UplinkFraction() != 0.75 {
		t.Errorf("uplink fraction = %v", m.UplinkFraction())
	}
	if m.PerSat[5].Requests != 2 {
		t.Errorf("per-sat meter: %+v", m.PerSat[5])
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestRelayAvailabilityRecord(t *testing.T) {
	var r RelayAvailability
	r.Record(10, true, false)
	r.Record(20, false, true)
	r.Record(30, true, true)
	r.Record(40, false, false) // neither: not tallied
	if r.WestOnlyReq != 1 || r.EastOnlyReq != 1 || r.BothReq != 1 {
		t.Errorf("tally: %+v", r)
	}
	if r.WestOnlyBytes != 10 || r.EastOnlyBytes != 20 || r.BothBytes != 30 {
		t.Errorf("bytes: %+v", r)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
