package replayer

import (
	"errors"
	"testing"
	"time"

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

// stage3Controller escalates a fresh controller to StageHitsOnly: each Tick
// closes one 1-second epoch whose one request was degraded, so every epoch
// breaches and the burn, 1/BudgetFraction = 4, clears every Enter threshold;
// three closed epochs climb the ladder. The server only reads the stage, so
// the controller stays there.
func stage3Controller(t *testing.T) *shed.Controller {
	t.Helper()
	cfg := shed.Defaults()
	cfg.EpochSec = 1
	cfg.DwellEpochs = 1
	ctrl, err := shed.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0.0; ts <= 4; ts++ {
		ctrl.Tick(ts)
		ctrl.Observe(shed.Signal{Degraded: true})
	}
	if got := ctrl.Stage(); got != shed.StageHitsOnly {
		t.Fatalf("controller at %v, want stage-3", got)
	}
	return ctrl
}

// TestShedParitySimVsSequentialReplay is the overload-control cross-check in
// its strictest form: under an identical §3.4 kill schedule and an identical
// shed configuration, the in-process simulator and the sequential TCP replay
// must shed the identical request set — same per-action shed counters, same
// stage transitions, same final stage — and the kill wave must overload the
// controller and let it recover. Options.Shedder alone promises that; wire
// enforcement (ServerOptions.Shedder) must change nothing. (Meter equality is
// the oracle's: TestDifferentialSimVsSequentialReplay, shed=true cases.)
func TestShedParitySimVsSequentialReplay(t *testing.T) {
	for _, tc := range []struct {
		name       string
		serverShed bool
	}{{"server-shedder-on", true}, {"server-shedder-off", false}} {
		t.Run(tc.name, func(t *testing.T) { shedParitySimVsSequentialReplay(t, tc.serverShed) })
	}
}

func shedParitySimVsSequentialReplay(t *testing.T, serverShed bool) {
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
	// With serverShed the one controller drives both sides of the wire: the
	// replay loop's client-side decisions and the servers' StatusShed
	// enforcement.
	var sopts ServerOptions
	if serverShed {
		sopts.Shedder = tcpCtrl
	}
	cluster, err := NewClusterOpts(cache.LRU, capacity, sopts)
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

// TestShedWireStatusShedNoRetry: a StatusShed answer is a served refusal,
// not a transport fault — the client maps it to shed.ErrShed on exactly one
// attempt (retrying would add the very load being shed) and counts it under
// starcdn_client_rejected_total{reason="shed"}.
func TestShedWireStatusShedNoRetry(t *testing.T) {
	ctrl := stage3Controller(t)
	s, err := NewServerOpts(1, cache.LRU, 1<<20, ServerOptions{Shedder: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	reg := obs.NewRegistry()
	cl := newClientOpts(clientOptions{
		IOTimeout: 2 * time.Second,
		Retry:     RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Obs:       reg,
	})
	defer func() { _ = cl.Close() }()

	// Owner miss at stage 3: the fetch behind it is refused.
	if _, err := cl.Get(s.Addr(), 42, 100); !errors.Is(err, shed.ErrShed) {
		t.Fatalf("stage-3 miss returned %v, want shed.ErrShed", err)
	}
	if err := cl.Admit(s.Addr(), 42, 100); !errors.Is(err, shed.ErrShed) {
		t.Fatalf("stage-3 admit returned %v, want shed.ErrShed", err)
	}
	if _, err := cl.Contains(s.Addr(), 42); !errors.Is(err, shed.ErrShed) {
		t.Fatalf("stage-3 contains returned %v, want shed.ErrShed", err)
	}
	// Three single-attempt operations; a retried shed would add attempts
	// and show up here.
	if got := counterValue(reg, "starcdn_client_attempts_total"); got != 3 {
		t.Errorf("attempts = %.0f, want 3 (sheds must not retry)", got)
	}
	if got := counterValue(reg, "starcdn_client_retries_total"); got != 0 {
		t.Errorf("retries = %.0f, want 0", got)
	}
	if got := counterValue(reg, `starcdn_client_rejected_total{reason="shed"}`); got != 3 {
		t.Errorf("rejected{shed} = %.0f, want 3", got)
	}
	// Sheds are served answers, not failures.
	if got := counterValue(reg, "starcdn_client_failures_total"); got != 0 {
		t.Errorf("failures = %.0f, want 0", got)
	}
}

// TestShedWirePlainClientSeesErrShed: a shed is always StatusShed, so a client
// built with no shed configuration still gets shed.ErrShed for a refused miss,
// and a hit is served even at stage 3.
func TestShedWirePlainClientSeesErrShed(t *testing.T) {
	s, err := NewServerOpts(3, cache.LRU, 1<<20, ServerOptions{Shedder: stage3Controller(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	// Every admit is shed at stage 3, so seed the cache through its handle.
	s.mu.Lock()
	if err := s.cache.Admit(9, 10); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.mu.Unlock()

	cl := newClientOpts(clientOptions{IOTimeout: 2 * time.Second})
	defer func() { _ = cl.Close() }()
	if _, err := cl.Get(s.Addr(), 42, 100); !errors.Is(err, shed.ErrShed) {
		t.Errorf("stage-3 miss returned %v, want shed.ErrShed", err)
	}
	if hit, err := cl.Get(s.Addr(), 9, 10); err != nil || !hit {
		t.Errorf("cached object at stage 3: hit=%v err=%v; hits must never shed", hit, err)
	}
}
