package replayer

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

func TestRetryBackoffBoundsAndDeterminism(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 16 * time.Millisecond}
	if d := p.Backoff(0, nil); d != 0 {
		t.Errorf("first attempt should not wait, got %v", d)
	}
	// Nominal (nil rng) doubling with cap.
	want := []time.Duration{2, 4, 8, 16, 16}
	for i, w := range want {
		if d := p.Backoff(i+1, nil); d != w*time.Millisecond {
			t.Errorf("attempt %d: backoff %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
	// Jitter stays within [d/2, 3d/2) and is reproducible per seed.
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := p.Backoff(attempt, r1)
		d2 := p.Backoff(attempt, r2)
		if d1 != d2 {
			t.Errorf("attempt %d: same seed diverged (%v vs %v)", attempt, d1, d2)
		}
		nominal := p.Backoff(attempt, nil)
		if d1 < nominal/2 || d1 >= nominal+nominal/2 {
			t.Errorf("attempt %d: jittered %v outside [%v, %v)", attempt, d1, nominal/2, nominal*3/2)
		}
	}
	// Zero value: exactly one attempt, sane defaults when retrying anyway.
	var zero RetryPolicy
	if zero.attempts() != 1 {
		t.Errorf("zero policy attempts = %d", zero.attempts())
	}
	if d := zero.Backoff(1, nil); d != defaultBaseBackoff {
		t.Errorf("zero policy backoff = %v, want default %v", d, defaultBaseBackoff)
	}
}

// TestFaultInjectorDeterminism: identical seeds produce identical fault
// streams, connection by connection and draw by draw.
func TestFaultInjectorDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 42, ResetRate: 0.3, StallRate: 0.2, TruncateRate: 0.1}
	draw := func() []bool {
		inj := NewFaultInjector(cfg)
		var out []bool
		for conn := 0; conn < 8; conn++ {
			a, b := net.Pipe()
			_ = b.Close()
			fc := inj.Wrap(a).(*faultConn)
			for i := 0; i < 32; i++ {
				out = append(out, fc.roll(0.25))
			}
			_ = a.Close()
		}
		return out
	}
	s1, s2 := draw(), draw()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fault stream diverged at draw %d", i)
		}
	}
}

// TestClientRetriesThroughInjectedResets: a reset on the first attempt is
// absorbed by the retry budget; the operation still succeeds, and
// starcdn_client_retries_total counts one retry per injected reset.
func TestClientRetriesThroughInjectedResets(t *testing.T) {
	s, err := NewServer(1, cache.LRU, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	inj := NewFaultInjector(FaultConfig{Seed: 5, ResetRate: 0.3})
	reg := obs.NewRegistry()
	cl := newClientOpts(clientOptions{
		IOTimeout: time.Second,
		Retry:     RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Dial:      inj.Dialer(),
		Seed:      1,
		Obs:       reg,
	})
	defer func() { _ = cl.Close() }()

	for i := 0; i < 200; i++ {
		obj := cache.ObjectID(i)
		if err := cl.Admit(s.Addr(), obj, 10); err != nil {
			t.Fatalf("admit %d failed through retries: %v", i, err)
		}
		if hit, err := cl.Get(s.Addr(), obj, 10); err != nil || !hit {
			t.Fatalf("get %d: hit=%v err=%v", i, hit, err)
		}
	}
	st := inj.Stats()
	if st.Resets == 0 {
		t.Fatal("injector never fired; test exercised nothing")
	}
	// Each reset fails the one frame of its attempt, and the budget is never
	// exhausted, so every reset costs exactly one retry.
	if got := counterValue(reg, "starcdn_client_retries_total"); got != float64(st.Resets) {
		t.Errorf("retries = %.0f, want %d (one per injected reset)", got, st.Resets)
	}
	if got := counterValue(reg, "starcdn_client_failures_total"); got != 0 {
		t.Errorf("failures = %.0f, want 0", got)
	}
}

// TestClientExhaustsRetriesOnRefusedDials: with every dial refused, the
// client fails after exactly MaxAttempts dials — bounded, not hanging.
func TestClientExhaustsRetriesOnRefusedDials(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 3, RefuseRate: 1})
	cl := newClientOpts(clientOptions{
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		Dial:  inj.Dialer(),
	})
	defer func() { _ = cl.Close() }()
	_, err := cl.Get("127.0.0.1:1", 1, 1)
	if err == nil {
		t.Fatal("refused dials should surface an error")
	}
	if st := inj.Stats(); st.Dials != 4 || st.Refused != 4 {
		t.Errorf("dials=%d refused=%d, want 4/4", st.Dials, st.Refused)
	}
}

// TestClientDeadlineTripsOnStall: an injected stall longer than the I/O
// timeout must surface as a timeout within the per-attempt budget rather
// than hanging the replay.
func TestClientDeadlineTripsOnStall(t *testing.T) {
	s, err := NewServer(1, cache.LRU, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	inj := NewFaultInjector(FaultConfig{Seed: 9, StallRate: 1, StallFor: 300 * time.Millisecond})
	cl := newClientOpts(clientOptions{
		IOTimeout: 50 * time.Millisecond,
		Retry:     RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		Dial:      inj.Dialer(),
	})
	defer func() { _ = cl.Close() }()

	start := time.Now()
	_, err = cl.Get(s.Addr(), 1, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled reads should time out")
	}
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Errorf("error %v is not a net timeout", err)
	}
	// 2 attempts × (300ms stall + deadline) plus backoff: must stay well
	// under a runaway hang.
	if elapsed > 3*time.Second {
		t.Errorf("stall handling took %v", elapsed)
	}
	if st := inj.Stats(); st.Stalls == 0 {
		t.Error("no stalls were injected")
	}
}

// TestServerSideTruncationIsRetried: truncated response frames from a
// chaos-wrapped server listener are absorbed by the client's retry budget.
func TestServerSideTruncationIsRetried(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 11, TruncateRate: 0.15})
	s, err := NewServerOpts(1, cache.LRU, 1<<20, ServerOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	cl := newClientOpts(clientOptions{
		IOTimeout: time.Second,
		Retry:     RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	defer func() { _ = cl.Close() }()
	for i := 0; i < 150; i++ {
		if err := cl.Admit(s.Addr(), cache.ObjectID(i), 10); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if st := inj.Stats(); st.Truncations == 0 {
		t.Error("no truncations were injected")
	}
}

// newReplayFixture builds a constellation/hash/users/trace tuple for
// fault-tolerant replay tests.
func newReplayFixture(t *testing.T, requests int, traceSeed int64) (*core.HashScheme, []geo.Point, *trace.Trace) {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		t.Fatal(err)
	}
	cities := geo.PaperCities()
	users := make([]geo.Point, len(cities))
	for i, city := range cities {
		users[i] = city.Point
	}
	cls := workload.Video()
	cls.NumObjects = 2000
	cls.SizeSigma = 0.5
	cls.MaxSizeBytes = 4 << 20
	g, err := workload.NewGenerator(cls, cities, traceSeed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(requests, 1200)
	if err != nil {
		t.Fatal(err)
	}
	return h, users, tr
}

// contacted is ContactedSats or a fatal test error.
func contacted(t *testing.T, h *core.HashScheme, users []geo.Point, tr *trace.Trace, opts Options) []orbit.SatID {
	t.Helper()
	sats, err := ContactedSats(h, users, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sats
}

// TestReplayDeadServerMakesProgress: a cluster where a contacted satellite's
// server never comes up must not hang or error — per-attempt deadlines and
// bounded retries degrade its requests to ground misses and the replay
// finishes within a wall-clock ceiling.
func TestReplayDeadServerMakesProgress(t *testing.T) {
	h, users, tr := newReplayFixture(t, 3000, 31)
	opts := Options{
		Hashing: true, Relay: true, Seed: 99,
		Fault: &FaultPolicy{
			IOTimeout: 100 * time.Millisecond,
			Retry:     RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		},
	}
	sats := contacted(t, h, users, tr, opts)
	if len(sats) < 3 {
		t.Fatalf("fixture contacts only %d satellites", len(sats))
	}
	cluster, err := NewCluster(cache.LRU, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	// The most-contacted satellites stay dead for the whole replay; the
	// constellation still believes they are active, so the decision layer
	// keeps routing to them and every contact exercises the network-level
	// failure path.
	for _, id := range sats[:3] {
		if err := cluster.Kill(id); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		meter cache.Meter
		err   error
	}
	done := make(chan result, 1)
	go func() {
		m, err := Replay(h, cluster, users, tr, opts)
		done <- result{m, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("replay errored instead of degrading: %v", res.err)
		}
		if res.meter.Requests != int64(len(tr.Requests)) {
			t.Errorf("accounted %d of %d requests", res.meter.Requests, len(tr.Requests))
		}
		if res.meter.BytesHit+res.meter.BytesMissed != res.meter.BytesTotal {
			t.Errorf("byte accounting leak: %+v", res.meter)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("replay hung past the wall-clock ceiling with a dead server")
	}
}

// TestReplayFailFastWithoutPolicy: without a FaultPolicy the legacy contract
// holds — a dead server aborts the replay with an error.
func TestReplayFailFastWithoutPolicy(t *testing.T) {
	h, users, tr := newReplayFixture(t, 2000, 31)
	opts := Options{Hashing: true, Relay: true, Seed: 99}
	sats := contacted(t, h, users, tr, opts)
	cluster, err := NewCluster(cache.LRU, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	if err := cluster.Kill(sats[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(h, cluster, users, tr, opts); err == nil {
		t.Fatal("fail-fast replay should error on a dead server")
	}
}

// TestFailureScheduleRequiresFaultPolicy: Options.Failures without a
// FaultPolicy is a configuration error, not a silent degradation.
func TestFailureScheduleRequiresFaultPolicy(t *testing.T) {
	h, users, tr := newReplayFixture(t, 100, 31)
	cluster, err := NewCluster(cache.LRU, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	opts := Options{Hashing: true, Seed: 1,
		Failures: []sim.FailureEvent{{TimeSec: 1, Sat: 0, Down: true}}}
	if _, err := Replay(h, cluster, users, tr, opts); err == nil {
		t.Error("Replay accepted Failures without Fault")
	}
	if _, err := ReplayConcurrent(h, cluster, users, tr, opts); err == nil {
		t.Error("ReplayConcurrent accepted Failures without Fault")
	}
}

// TestClusterKillReviveLifecycle covers the §3.4 server lifecycle: kill
// severs service but preserves contents; revive restores them on a new
// address; a never-started kill still yields a refusing address.
func TestClusterKillReviveLifecycle(t *testing.T) {
	cluster, err := NewCluster(cache.LRU, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	cl := newClientOpts(clientOptions{IOTimeout: time.Second})
	defer func() { _ = cl.Close() }()

	addr, err := cluster.Addr(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Admit(addr, 77, 100); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Kill(5); err != nil {
		t.Fatal(err)
	}
	if _, down := cluster.downAddr[5]; !down {
		t.Error("killed satellite not recorded down")
	}
	downAddr, err := cluster.Addr(5)
	if err != nil {
		t.Fatal(err)
	}
	if downAddr != addr {
		t.Errorf("down address changed: %s vs %s", downAddr, addr)
	}
	if _, err := cl.Get(downAddr, 77, 100); err == nil {
		t.Error("request to a killed server should fail")
	}

	if err := cluster.Revive(5); err != nil {
		t.Fatal(err)
	}
	newAddr, err := cluster.Addr(5)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := cl.Get(newAddr, 77, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("cache contents did not survive the kill/revive cycle")
	}

	// Never-started satellite: Kill reserves a refusing address.
	if err := cluster.Kill(9); err != nil {
		t.Fatal(err)
	}
	a9, err := cluster.Addr(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", a9, 500*time.Millisecond); err == nil {
		t.Error("never-started killed satellite accepted a connection")
	}
	// Double-kill and double-revive are no-ops.
	if err := cluster.Kill(9); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Revive(5); err != nil {
		t.Fatal(err)
	}
}
