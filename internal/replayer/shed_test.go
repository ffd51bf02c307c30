package replayer

import (
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/shed"
	"starcdn/internal/sim"
)

// shedChaosConfig is the overload-control configuration the chaos shed
// tests share: tight epochs and a low degraded tolerance so a transient
// kill wave drives the ladder up, a small session quota with a short idle
// window so stage 2 visibly rejects, and a single dwell epoch so recovery
// completes within the trace.
func shedChaosConfig(reg *obs.Registry) shed.Config {
	cfg := shed.Defaults()
	cfg.EpochSec = 30
	cfg.WindowEpochs = 4
	cfg.MaxDegraded = 0.02
	cfg.DwellEpochs = 1
	cfg.SessionQuota = 6
	cfg.SessionIdleSec = 10
	cfg.Metrics = reg
	return cfg
}

// counterValue reads one counter series (name plus rendered labels) from a
// registry snapshot, returning 0 when the series does not exist.
func counterValue(reg *obs.Registry, key string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name+s.LabelString() == key {
			return s.Value
		}
	}
	return 0
}

// TestShedParitySimVsSequentialReplay is the overload-control cross-check in
// its strictest form: under an identical §3.4 kill schedule and an identical
// shed configuration, the in-process simulator and the sequential TCP replay
// must shed the identical request set — same per-action shed counters, same
// stage transitions, same final stage — and the kill wave must overload the
// controller and let it recover. (Meter equality is the oracle's:
// TestDifferentialSimVsSequentialReplay, shed=true cases.) Servers never
// enforce stages, so the one case runs with the client-side controller as
// the only shedder.
func TestShedParitySimVsSequentialReplay(t *testing.T) {
	t.Run("server-shedder-off", testShedParity)
}

func testShedParity(t *testing.T) {
	const requests = 6000
	const traceSeed = 31
	const capacity = 64 << 20
	const seed = 99

	hSim, usersSim, trSim := newReplayFixture(t, requests, traceSeed)
	hTCP, usersTCP, trTCP := newReplayFixture(t, requests, traceSeed)

	opts := Options{Hashing: true, Relay: true, Seed: seed}
	sats := contacted(t, hTCP, usersTCP, trTCP, opts)
	// All-transient kills: every outage is a miss-through wave (the burn
	// signal) and every satellite comes back, so the run must recover.
	events := sim.GenerateChaos(sats, sim.ChaosOptions{
		StartSec: 200, EndSec: 500,
		KillFraction:      0.30,
		TransientFraction: 1.0,
		ReviveAfterSec:    200,
		Seed:              7,
	})
	if len(events) == 0 {
		t.Fatal("chaos generator produced no events")
	}

	regSim := obs.NewRegistry()
	simCtrl, err := shed.NewController(shedChaosConfig(regSim))
	if err != nil {
		t.Fatal(err)
	}
	pol := sim.NewStarCDN(hSim, sim.CacheConfig{Kind: cache.LRU, Bytes: capacity},
		sim.StarCDNOptions{Hashing: true, Relay: true})
	m1, err := sim.Run(hSim.Grid().Constellation(), usersSim, trSim, pol,
		sim.Config{Seed: seed, Failures: events, Shedder: simCtrl})
	if err != nil {
		t.Fatal(err)
	}

	regTCP := obs.NewRegistry()
	tcpCtrl, err := shed.NewController(shedChaosConfig(regTCP))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(cache.LRU, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	opts.Fault = chaosFaultPolicy()
	opts.Failures = events
	opts.Obs = obs.NewRegistry()
	opts.Shedder = tcpCtrl
	if _, err := Replay(hTCP, cluster, usersTCP, trTCP, opts); err != nil {
		t.Fatal(err)
	}

	// The shed request sets agree exactly.
	simShed := m1.BySource[sim.SourceShed]
	tcpShed := counterValue(opts.Obs, `starcdn_replay_requests_total{source="shed"}`)
	if simShed == 0 {
		t.Fatal("chaos run shed no requests; the schedule no longer overloads the controller")
	}
	if float64(simShed) != tcpShed {
		t.Errorf("shed counts differ: sim %d vs TCP %.0f", simShed, tcpShed)
	}

	// Same controller trajectory: every action tally, both transition
	// directions (recovery included), and the final stage agree.
	for a := shed.ActionRelaySkip; a <= shed.ActionHitOnly; a++ {
		key := `starcdn_shed_actions_total{action="` + a.String() + `"}`
		sv, tv := counterValue(regSim, key), counterValue(regTCP, key)
		if sv != tv {
			t.Errorf("action %v counts differ: sim %.0f vs TCP %.0f", a, sv, tv)
		}
	}
	sUp, sDown := simCtrl.Transitions()
	tUp, tDown := tcpCtrl.Transitions()
	if sUp != tUp || sDown != tDown {
		t.Errorf("transitions differ: sim (%d up, %d down) vs TCP (%d up, %d down)",
			sUp, sDown, tUp, tDown)
	}
	if sUp < 2 {
		t.Errorf("controller climbed only %d stages; the kill wave no longer overloads it", sUp)
	}
	if sDown == 0 {
		t.Error("controller never recovered a stage within the trace")
	}
	if s1, s2 := simCtrl.Stage(), tcpCtrl.Stage(); s1 != s2 {
		t.Errorf("final stages differ: sim %v vs TCP %v", s1, s2)
	}
	if got := tcpCtrl.Stage(); got != shed.StageNormal {
		t.Errorf("replay ended at %v, want full hysteretic recovery to stage-0", got)
	}
}
