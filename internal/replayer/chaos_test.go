package replayer

import (
	"reflect"
	"testing"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/sim"
)

// chaosFaultPolicy keeps chaos replays snappy: dead servers refuse dials
// immediately, so generous production I/O timeouts would only slow the test.
func chaosFaultPolicy() *FaultPolicy {
	return &FaultPolicy{
		IOTimeout: 200 * time.Millisecond,
		Retry:     RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	}
}

// TestGenerateChaosDeterminism: the schedule is a pure function of its
// inputs — same seed yields a byte-identical event list, a different seed a
// different one, and candidate slice order is irrelevant.
func TestGenerateChaosDeterminism(t *testing.T) {
	h, users, tr := newReplayFixture(t, 2000, 31)
	opts := Options{Hashing: true, Relay: true, Seed: 99}
	sats := contacted(t, h, users, tr, opts)
	if len(sats) < 20 {
		t.Fatalf("fixture contacts only %d satellites", len(sats))
	}
	co := sim.ChaosOptions{
		StartSec: 100, EndSec: 900,
		KillFraction:      0.10,
		TransientFraction: 0.5,
		ReviveAfterSec:    200,
		Seed:              4242,
	}
	a := sim.GenerateChaos(sats, co)
	b := sim.GenerateChaos(sats, co)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	// Reversed candidate order must not matter: the generator sorts first.
	rev := make([]orbitSat, len(sats))
	for i, s := range sats {
		rev[len(sats)-1-i] = s
	}
	if c := sim.GenerateChaos(rev, co); !reflect.DeepEqual(a, c) {
		t.Fatal("candidate order changed the schedule")
	}
	co2 := co
	co2.Seed = 4243
	if d := sim.GenerateChaos(sats, co2); reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Structural sanity: sorted by time, kills within the window, at least
	// 10% of candidates killed.
	kills := 0
	for i, ev := range a {
		if i > 0 && ev.TimeSec < a[i-1].TimeSec {
			t.Fatalf("schedule out of order at %d", i)
		}
		if ev.Down {
			kills++
			if ev.TimeSec < co.StartSec || ev.TimeSec >= co.EndSec {
				t.Errorf("kill at %v outside window", ev.TimeSec)
			}
		}
	}
	if want := (len(sats) + 9) / 10; kills < want {
		t.Errorf("killed %d of %d candidates, want >= %d", kills, len(sats), want)
	}
}

// TestChaosSequentialReplayAccounting: a sequential TCP replay under a §3.4
// failure schedule — kills, remaps, transient miss-throughs and revivals —
// completes and accounts for every request and byte. That it decides every
// request as the in-process simulator does is the oracle's claim
// (TestDifferentialSimVsSequentialReplay, the chaos=true cases).
func TestChaosSequentialReplayAccounting(t *testing.T) {
	h, users, tr := newReplayFixture(t, 6000, 31)
	opts := Options{Hashing: true, Relay: true, Seed: 99}
	events := sim.GenerateChaos(contacted(t, h, users, tr, opts), sim.ChaosOptions{
		StartSec: 200, EndSec: 1000,
		KillFraction:      0.08, // > the 5% acceptance floor
		TransientFraction: 0.5,
		ReviveAfterSec:    250,
		Seed:              7,
	})
	if len(events) == 0 {
		t.Fatal("chaos generator produced no events")
	}

	cluster, err := NewCluster(cache.LRU, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	opts.Fault = chaosFaultPolicy()
	opts.Failures = events
	m, err := Replay(h, cluster, users, tr, opts)
	if err != nil {
		t.Fatal(err)
	}

	if m.Requests != int64(len(tr.Requests)) {
		t.Errorf("meter recorded %d of %d requests", m.Requests, len(tr.Requests))
	}
	if m.BytesHit+m.BytesMissed != m.BytesTotal {
		t.Errorf("byte accounting leak: %d + %d != %d", m.BytesHit, m.BytesMissed, m.BytesTotal)
	}
	if m.RequestHitRate() <= 0 {
		t.Error("chaos replay produced zero hit rate")
	}
}

// TestChaosConcurrentReplayCrossCheck is the acceptance chaos test: a seeded
// schedule kills >= 5% of contacted servers mid-replay; ReplayConcurrent must
// complete without error and equal an identically-scheduled sim.Run request
// for request — the window drains at every kill and revival.
func TestChaosConcurrentReplayCrossCheck(t *testing.T) {
	const requests = 6000
	const traceSeed = 13
	const capacity = 64 << 20
	const seed = 3

	hSim, usersSim, trSim := newReplayFixture(t, requests, traceSeed)
	hTCP, usersTCP, trTCP := newReplayFixture(t, requests, traceSeed)

	opts := Options{Hashing: true, Relay: true, Seed: seed}
	sats := contacted(t, hTCP, usersTCP, trTCP, opts)
	events := sim.GenerateChaos(sats, sim.ChaosOptions{
		StartSec: 200, EndSec: 1000,
		KillFraction:      0.08,
		TransientFraction: 0.5,
		ReviveAfterSec:    250,
		Seed:              11,
	})
	killed := 0
	for _, ev := range events {
		if ev.Down {
			killed++
		}
	}
	if killed*20 < len(sats) {
		t.Fatalf("schedule kills %d of %d contacted sats, below the 5%% floor", killed, len(sats))
	}

	pol := sim.NewStarCDN(hSim, sim.CacheConfig{Kind: cache.LRU, Bytes: capacity},
		sim.StarCDNOptions{Hashing: true, Relay: true})
	m1, err := sim.Run(hSim.Grid().Constellation(), usersSim, trSim, pol,
		sim.Config{Seed: seed, Failures: events})
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
	m2, err := ReplayConcurrent(hTCP, cluster, usersTCP, trTCP, opts)
	if err != nil {
		t.Fatalf("concurrent chaos replay errored: %v", err)
	}

	if m2 != m1.Meter {
		t.Errorf("chaos meters differ:\n sim %+v\n TCP %+v", m1.Meter, m2)
	}
	if m2.RequestHitRate() <= 0 {
		t.Error("concurrent chaos replay produced no hits")
	}
}

// TestChaosWithInjectedNetworkFaults layers deterministic wire-level faults
// (resets, stalls, refused dials, truncated frames) on top of a kill
// schedule. The replay must still complete with exact request/byte
// accounting — injected faults degrade individual requests to ground misses,
// never corrupt the meters.
func TestChaosWithInjectedNetworkFaults(t *testing.T) {
	const requests = 4000
	const capacity = 64 << 20

	h, users, tr := newReplayFixture(t, requests, 47)
	opts := Options{Hashing: true, Relay: true, Seed: 5}
	sats := contacted(t, h, users, tr, opts)
	events := sim.GenerateChaos(sats, sim.ChaosOptions{
		StartSec: 200, EndSec: 1000,
		KillFraction:      0.06,
		TransientFraction: 0.5,
		ReviveAfterSec:    250,
		Seed:              23,
	})

	inj := NewFaultInjector(FaultConfig{
		Seed:         77,
		RefuseRate:   0.01,
		ResetRate:    0.005,
		StallRate:    0.002,
		TruncateRate: 0.002,
		StallFor:     150 * time.Millisecond,
	})
	reg := obs.NewRegistry()
	cluster, err := NewCluster(cache.LRU, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	opts.Fault = &FaultPolicy{
		IOTimeout: 100 * time.Millisecond,
		Retry:     RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		Injector:  inj,
	}
	opts.Failures = events
	opts.Obs = reg

	m, err := ReplayConcurrent(h, cluster, users, tr, opts)
	if err != nil {
		t.Fatalf("chaos replay with injected faults errored: %v", err)
	}
	// The time-bounded generator may emit slightly fewer requests than asked;
	// exact accounting means one meter entry per generated request.
	if m.Requests != int64(len(tr.Requests)) {
		t.Errorf("meter recorded %d of %d requests", m.Requests, len(tr.Requests))
	}
	if m.BytesHit+m.BytesMissed != m.BytesTotal {
		t.Errorf("byte accounting leak: %d + %d != %d", m.BytesHit, m.BytesMissed, m.BytesTotal)
	}
	if m.RequestHitRate() <= 0 {
		t.Error("replay under injected faults produced no hits")
	}
	st := inj.Stats()
	if st.Dials == 0 {
		t.Errorf("injector saw no traffic: %+v", st)
	}
	if st.Refused+st.Resets+st.Stalls+st.Truncations == 0 {
		t.Errorf("injector fired no faults: %+v", st)
	}
	// Rejection classification stays consistent under chaos: the classified
	// rejections (deadline, refused) never exceed the terminal failures they
	// subset.
	classified := counterValue(reg, `starcdn_client_rejected_total{reason="deadline"}`) +
		counterValue(reg, `starcdn_client_rejected_total{reason="refused"}`)
	if failures := counterValue(reg, "starcdn_client_failures_total"); classified > failures {
		t.Errorf("classified rejections %.0f exceed terminal failures %.0f", classified, failures)
	}
}

// TestClientRejectedRefusedCounter: a dead address (every dial refused) is a
// terminal failure classified under rejected_total{reason="refused"} — both
// for injected refusals and for a real listener that is gone.
func TestClientRejectedRefusedCounter(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 2, RefuseRate: 1.0})
	reg := obs.NewRegistry()
	cl := newClientOpts(clientOptions{
		DialTimeout: 100 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Dial:        inj.Dialer(),
		Obs:         reg,
	})
	defer func() { _ = cl.Close() }()
	if _, err := cl.Get("127.0.0.1:1", 5, 10); err == nil {
		t.Fatal("refused dial succeeded")
	}
	if got := counterValue(reg, `starcdn_client_rejected_total{reason="refused"}`); got != 1 {
		t.Errorf("rejected{refused} = %.0f, want 1", got)
	}

	// Real refusal: a server that was closed keeps its address but refuses.
	s, err := NewServerOpts(6, cache.LRU, 1<<20, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	cl2 := newClientOpts(clientOptions{
		DialTimeout: 100 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Obs:         reg2,
	})
	defer func() { _ = cl2.Close() }()
	if _, err := cl2.Get(addr, 5, 10); err == nil {
		t.Fatal("dial of closed server succeeded")
	}
	if got := counterValue(reg2, `starcdn_client_rejected_total{reason="refused"}`); got != 1 {
		t.Errorf("real refusal rejected{refused} = %.0f, want 1", got)
	}
}

// TestClientRejectedDeadlineCounter: a server stalled past the I/O deadline
// on every attempt is a terminal failure classified under
// starcdn_client_rejected_total{reason="deadline"}.
func TestClientRejectedDeadlineCounter(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{
		Seed:      1,
		StallRate: 1.0,
		StallFor:  time.Second,
	})
	s, err := NewServerOpts(1, cache.LRU, 1<<20, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	reg := obs.NewRegistry()
	cl := newClientOpts(clientOptions{
		DialTimeout: 100 * time.Millisecond,
		IOTimeout:   50 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Dial:        inj.Dialer(),
		Obs:         reg,
	})
	defer func() { _ = cl.Close() }()
	if _, err := cl.Get(s.Addr(), 5, 10); err == nil {
		t.Fatal("stalled server answered")
	}
	if got := counterValue(reg, `starcdn_client_rejected_total{reason="deadline"}`); got != 1 {
		t.Errorf("rejected{deadline} = %.0f, want 1", got)
	}
	if got := counterValue(reg, "starcdn_client_failures_total"); got != 1 {
		t.Errorf("failures = %.0f, want 1", got)
	}
}
