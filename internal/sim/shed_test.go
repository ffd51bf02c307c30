package sim

import (
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/shed"
	"starcdn/internal/topo"
	"starcdn/internal/workload"
)

const shedCacheBytes = 256 << 20

// shedEnv builds a fixture like newEnv but over a small, hot catalog: most
// requests re-hit warm caches, so the healthy-state uplink runs light and
// the kill wave's miss-through flood is the only congested period — the
// regime overload control exists for.
func shedEnv(t *testing.T, requests int, durSec float64) *testEnv {
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
	cls.NumObjects = 600
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

// shedTestConfig tunes the controller for a chaos kill wave: short 3s epochs
// so the climb to hits-only completes before the congestion windows pin (the
// transition stages trade ISL load for uplink load, so lingering there keeps
// the queue hot), but a 30s sliding window so a single clean 15s scheduler
// epoch — hot-object owners rotating onto live satellites — cannot drain the
// burn signal and bounce the stage mid-wave. Thresholds are scaled to that
// window: stage 3 needs 6 of 10 epochs breaching, recovery from it needs 8
// of 10 clean. A low degraded tolerance makes the wave breach immediately,
// and a session quota below the city count makes stage 2 visibly reject.
func shedTestConfig(reg *obs.Registry) shed.Config {
	cfg := shed.Defaults()
	cfg.EpochSec = 3
	cfg.WindowEpochs = 10
	cfg.MaxDegraded = 0.02
	cfg.Enter = [3]float64{0.8, 1.6, 2.4}
	cfg.Exit = [3]float64{0.4, 0.8, 1.2}
	cfg.DwellEpochs = 1
	cfg.SessionQuota = 6
	cfg.SessionIdleSec = 10
	cfg.Metrics = reg
	return cfg
}

// transientKillWave generates the §3.4 chaos schedule the shed tests share:
// a third of the constellation drops into transient outages within a sharp
// 30s front starting at 200s and revives 300s later, so the overload both
// arrives and clears decisively within the trace. Sharp edges matter: a slow
// revive tail would hold the degraded fraction near the breach threshold and
// park the controller in the transition stages, whose direct-ground action
// trades ISL relief for extra uplink load.
func transientKillWave(e *testEnv) []FailureEvent {
	return GenerateChaos(contactedIDs(e.c), ChaosOptions{
		StartSec: 200, EndSec: 201,
		KillFraction:      0.30,
		TransientFraction: 1.0,
		ReviveAfterSec:    300,
		Seed:              7,
	})
}

// TestShedHoldsP99UnderChaosKillWave is the closed-loop acceptance proof:
// under an identical transient kill wave and congested uplink, the run
// without overload control blows through the latency SLO while the shedding
// run holds it — and the recorder series shows the controller climbing to
// admission control and recovering to normal before the trace ends.
func TestShedHoldsP99UnderChaosKillWave(t *testing.T) {
	const requests = 8000
	const durSec = 1200
	const seed = 9
	// The latency SLO the shedding run must hold. The control run's p99
	// sits well above it (the kill wave's miss-through flood keeps GSL
	// utilisation at the queueing cap for the whole outage, ~121ms at this
	// calibration); the shedding run's sits well below (~72ms: hits-only
	// mode starves the uplink queue, and rejected requests never join it).
	const sloP99Ms = 90.0

	// Failure schedules mutate constellation availability, so each run gets
	// its own fixture; the shared trace seed keeps the workloads identical.
	eCtl := shedEnv(t, requests, durSec)
	eShed := shedEnv(t, requests, durSec)
	events := transientKillWave(eCtl)
	if len(events) == 0 {
		t.Fatal("chaos generator produced no events")
	}

	// Scale the sampled trace so full demand sits at 3x the 20 Gbps GSL:
	// with warm caches the healthy-state uplink is near idle, while the
	// kill wave's miss-through flood pins utilisation at the queueing cap.
	// Under the default latency model the ground-fetch tail stays below the
	// queueing cap, so congestion — the thing shedding relieves — dominates
	// p99 rather than origin-network noise.
	demandGbps := float64(eCtl.tr.TotalBytes()) * 8 / eCtl.tr.DurationSec() / 1e9
	if demandGbps == 0 {
		t.Fatal("empty trace")
	}
	scale := 3.0 * 20 / demandGbps

	// Warm both policies with a failure-free pre-pass over the same trace so
	// the measured runs start from steady state: compulsory cold misses would
	// otherwise saturate the uplink identically in both runs and drown the
	// wave-time difference the test is about.
	pCtl := eCtl.starcdn(t, 4, shedCacheBytes, StarCDNOptions{Hashing: true, Relay: true})
	pShed := eShed.starcdn(t, 4, shedCacheBytes, StarCDNOptions{Hashing: true, Relay: true})
	if _, err := Run(eCtl.c, eCtl.users, eCtl.tr, pCtl, Config{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(eShed.c, eShed.users, eShed.tr, pShed, Config{Seed: seed}); err != nil {
		t.Fatal(err)
	}

	mCtl, err := Run(eCtl.c, eCtl.users, eCtl.tr, pCtl,
		Config{Seed: seed, Failures: events, TrafficScale: scale, CollectLatency: true})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: 5})
	ctrl, err := shed.NewController(shedTestConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	mShed, err := Run(eShed.c, eShed.users, eShed.tr, pShed,
		Config{Seed: seed, Failures: transientKillWave(eShed), TrafficScale: scale,
			CollectLatency: true, Metrics: reg, Recorder: rec, Shedder: ctrl})
	if err != nil {
		t.Fatal(err)
	}

	ctlP99 := mCtl.Latency.Quantile(0.99)
	shedP99 := mShed.Latency.Quantile(0.99)
	t.Logf("control p50=%.1f p90=%.1f p99=%.1f | shed p50=%.1f p90=%.1f p99=%.1f",
		mCtl.Latency.Quantile(0.5), mCtl.Latency.Quantile(0.9), ctlP99,
		mShed.Latency.Quantile(0.5), mShed.Latency.Quantile(0.9), shedP99)
	if ctlP99 <= sloP99Ms {
		t.Errorf("control p99 = %.1fms holds the %.0fms SLO; the kill wave no longer congests the uplink",
			ctlP99, sloP99Ms)
	}
	if shedP99 > sloP99Ms {
		t.Errorf("shedding p99 = %.1fms violates the %.0fms SLO (control %.1fms)",
			shedP99, sloP99Ms, ctlP99)
	}
	if shedP99 >= ctlP99 {
		t.Errorf("shedding did not improve p99: %.1fms vs control %.1fms", shedP99, ctlP99)
	}

	// Shedding genuinely turned requests away and relieved the uplink.
	if mShed.BySource[SourceShed] == 0 {
		t.Error("shedding run recorded no shed requests")
	}
	if mShed.UplinkBytes >= mCtl.UplinkBytes {
		t.Errorf("shedding did not relieve the uplink: %d vs control %d bytes",
			mShed.UplinkBytes, mCtl.UplinkBytes)
	}
	// The live counter an SLO would read follows the same rule as Metrics: a
	// rejected request moved no bytes.
	if got := reg.Counter("starcdn_sim_uplink_bytes_total").Value(); got != mShed.UplinkBytes {
		t.Errorf("live uplink counter = %d with %d requests shed, metrics say %d",
			got, mShed.BySource[SourceShed], mShed.UplinkBytes)
	}

	// The controller's trajectory is visible in the flight recorder: the
	// stage climbs to admission control (≥ 2) during the wave and the final
	// sample is back at normal — hysteretic recovery completed on record.
	pts := rec.Window("starcdn_shed_stage", 0)
	if len(pts) == 0 {
		t.Fatal("recorder captured no starcdn_shed_stage series")
	}
	maxStage := 0.0
	for _, p := range pts {
		if p.V > maxStage {
			maxStage = p.V
		}
	}
	if maxStage < 2 {
		t.Errorf("recorded stage peaked at %.0f, want >= 2 (admission control)", maxStage)
	}
	if last := pts[len(pts)-1]; last.V != 0 {
		t.Errorf("final recorded stage = %.0f at t=%.0fs, want recovery to 0", last.V, last.T)
	}
	if got := ctrl.Stage(); got != shed.StageNormal {
		t.Errorf("controller ended at %v, want stage-0", got)
	}
	up, down := ctrl.Transitions()
	if up < 2 || down < 2 {
		t.Errorf("transitions (%d up, %d down) do not show a climb and a recovery", up, down)
	}
}

// TestShedderIdleIsByteIdentical: a wired controller that never crosses a
// threshold must not perturb results — the closed loop is strictly additive
// until the burn signal demands action.
func TestShedderIdleIsByteIdentical(t *testing.T) {
	e := newEnv(t, 4000, 1200)
	run := func(ctrl *shed.Controller) *Metrics {
		m, err := Run(e.c, e.users, e.tr,
			e.starcdn(t, 4, shedCacheBytes, StarCDNOptions{Hashing: true, Relay: true}),
			Config{Seed: 5, CollectLatency: true, Shedder: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := run(nil)
	ctrl, err := shed.NewController(shed.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// No failures, so no degraded requests, burn 0, stage 0 throughout.
	shedded := run(ctrl)

	if got := ctrl.Stage(); got != shed.StageNormal {
		t.Fatalf("idle controller left stage-0: %v", got)
	}
	if plain.Meter != shedded.Meter {
		t.Errorf("meters differ with an idle shedder: %+v vs %+v", plain.Meter, shedded.Meter)
	}
	if plain.UplinkBytes != shedded.UplinkBytes {
		t.Errorf("uplink bytes differ: %d vs %d", plain.UplinkBytes, shedded.UplinkBytes)
	}
	for src, n := range plain.BySource {
		if shedded.BySource[src] != n {
			t.Errorf("source %v differs: %d vs %d", src, n, shedded.BySource[src])
		}
	}
	if a, b := plain.Latency.Quantile(0.99), shedded.Latency.Quantile(0.99); a != b {
		t.Errorf("latency CDFs differ: p99 %.3f vs %.3f", a, b)
	}
}

// TestShedBaselinesNeverBurn: the burn signal is the §3.4 miss-through, the
// ladder's verdict, so a baseline's ground serve never feeds it. On a
// failure-free trace a wired controller stays at stage 0 under every scheme,
// including those that serve every miss from the ground with no serving
// satellite (static, terrestrial-cdn) or with none in view (ground-edge).
func TestShedBaselinesNeverBurn(t *testing.T) {
	e := shedEnv(t, 6000, 600)
	cfg := CacheConfig{Kind: cache.LRU, Bytes: shedCacheBytes}
	edge, err := NewGroundEdgeCDN(cfg, geo.DefaultGroundStations(), e.users)
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{NewStaticCache(cfg), TerrestrialCDN{}, NoCacheBentPipe{},
		NewNaiveLRU(cfg), edge, e.starcdn(t, 4, shedCacheBytes, StarCDNOptions{Hashing: true, Relay: true})}
	for _, p := range policies {
		ctrl, err := shed.NewController(shed.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(e.c, e.users, e.tr, p, Config{Seed: 5, Shedder: ctrl}); err != nil {
			t.Fatal(err)
		}
		if up, _ := ctrl.Transitions(); up != 0 || ctrl.Stage() != shed.StageNormal {
			t.Errorf("%s: failure-free run climbed %d stages, ending at %v", p.Name(), up, ctrl.Stage())
		}
	}
}
