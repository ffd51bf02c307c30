package satdns

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/sched"
)

// simClock is a manually advanced clock for deterministic TTL tests.
type simClock struct {
	mu  sync.Mutex
	now float64
}

func (c *simClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newFixture(t *testing.T) (*Server, *Client, *simClock, *sched.Scheduler) {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	var users []geo.Point
	for _, city := range geo.PaperCities() {
		users = append(users, city.Point)
	}
	// A polar user that never resolves in a 53-degree shell.
	users = append(users, geo.NewPoint(89.5, 0))
	s, err := sched.New(c, users, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	clock := &simClock{}
	srv, err := NewServer(s, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := NewClient(srv.Addr(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	// The server's goroutine owns s. Tests compare against an identically
	// seeded twin: assignments are a pure function of (seed, user, epoch),
	// and a UDP round trip is not an ordering the race detector can see.
	oracle, err := sched.New(c, users, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cl, clock, oracle
}

func TestResolveMatchesScheduler(t *testing.T) {
	srv, cl, clock, s := newFixture(t)
	for u := 0; u < 9; u++ {
		ans, err := cl.Resolve(u)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := s.FirstContact(u, clock.Now())
		if !ok {
			t.Fatalf("scheduler has no answer for user %d", u)
		}
		if !ans.Resolved || ans.Sat != want {
			t.Errorf("user %d: resolved %v/%d, want %d", u, ans.Resolved, ans.Sat, want)
		}
		if ans.TTLSec <= 0 || ans.TTLSec > 15 {
			t.Errorf("user %d: TTL %v out of epoch bounds", u, ans.TTLSec)
		}
	}
	if srv.Queries() != 9 {
		t.Errorf("server saw %d queries, want 9", srv.Queries())
	}
}

func TestNoSatelliteAnswer(t *testing.T) {
	_, cl, _, _ := newFixture(t)
	ans, err := cl.Resolve(9) // the polar user
	if err != nil {
		t.Fatal(err)
	}
	if ans.Resolved {
		t.Error("polar user should not resolve in a 53-degree shell")
	}
}

func TestTTLCaching(t *testing.T) {
	srv, cl, clock, s := newFixture(t)
	// Two resolutions inside one epoch: one query, one cache hit.
	a1, err := cl.Resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(5)
	a2, err := cl.Resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Sat != a2.Sat {
		t.Error("cached answer changed within the epoch")
	}
	hits, misses := cl.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if srv.Queries() != 1 {
		t.Errorf("server saw %d queries, want 1 (TTL should suppress the second)", srv.Queries())
	}
	// Crossing the epoch boundary expires the cache and may change the sat.
	clock.Advance(15)
	a3, err := cl.Resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Queries() != 2 {
		t.Errorf("post-epoch resolve did not query the server")
	}
	want, _ := s.FirstContact(0, clock.Now())
	if a3.Sat != want {
		t.Errorf("post-epoch answer %d, want %d", a3.Sat, want)
	}
}

func TestBadQueryRejected(t *testing.T) {
	srv, _, clock, _ := newFixture(t)
	// Send garbage straight at the server.
	cl, err := NewClient(srv.Addr(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := cl.conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != responseSize || buf[2] != statusBadQuery {
		t.Errorf("garbage query answer: %d bytes, status %d", n, buf[2])
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _, clock, _ := newFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := NewClient(srv.Addr(), clock.Now)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for u := 0; u < 9; u++ {
				if _, err := cl.Resolve(u); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Queries() != 72 {
		t.Errorf("server saw %d queries, want 72", srv.Queries())
	}
}

func TestWallClock(t *testing.T) {
	c := WallClock(60)
	v1 := c()
	if v1 < 0 {
		t.Error("clock went backwards")
	}
}

// TestResolveTimesOutAgainstDeadResolver: a resolver that never answers (a
// bound UDP socket with no reader) must fail a Resolve within the configured
// timeout rather than hanging the caller — UDP gives no failure signal, so
// the deadline is the only thing standing between the replayer and a stall.
func TestResolveTimesOutAgainstDeadResolver(t *testing.T) {
	dead, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dead.Close() }()
	// Drain nothing: datagrams queue in the kernel and no response ever comes.

	clock := &simClock{}
	const timeout = 150 * time.Millisecond
	cl, err := NewClientTimeout(dead.LocalAddr().String(), clock.Now, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	start := time.Now()
	_, err = cl.Resolve(3)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("resolve against a dead resolver succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a net timeout", err)
	}
	if elapsed < timeout/2 {
		t.Errorf("failed after %v, before the %v deadline could fire", elapsed, timeout)
	}
	if elapsed > 10*timeout {
		t.Errorf("resolve took %v, far past the %v deadline", elapsed, timeout)
	}
	// A failed resolve is not cached: the next call queries again (and the
	// miss counter moves).
	if _, err := cl.Resolve(3); err == nil {
		t.Error("second resolve unexpectedly succeeded")
	}
	if hits, misses := cl.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("cache stats after two failed resolves: hits=%d misses=%d", hits, misses)
	}
}

// TestNewClientTimeoutDefaults: non-positive timeouts select DefaultTimeout.
func TestNewClientTimeoutDefaults(t *testing.T) {
	_, cl, _, _ := newFixture(t)
	if cl.timeout != DefaultTimeout {
		t.Errorf("NewClient timeout = %v, want %v", cl.timeout, DefaultTimeout)
	}
	cl2, err := NewClientTimeout(cl.addr, cl.clock, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl2.Close() }()
	if cl2.timeout != DefaultTimeout {
		t.Errorf("negative timeout = %v, want %v", cl2.timeout, DefaultTimeout)
	}
}
