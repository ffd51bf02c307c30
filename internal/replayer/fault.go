// Fault injection for the distributed replayer: a deterministic,
// seeded wrapper around net.Conn / net.Listener that produces the failure
// modes a satellite ISL/TCP path actually exhibits — refused dials,
// connection resets, reads stalling past the deadline, and truncated frames.
// The injector mirrors sim.FailureEvent's role for the in-process simulator:
// the same seed produces the same per-connection fault stream, so chaos
// replays are reproducible and can be cross-checked against sim.Run.
package replayer

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"
)

// Injected fault errors. They are distinct sentinel values so tests (and the
// retry loop's callers) can tell an injected fault from a real network error.
// The refusal wraps ECONNREFUSED so error classifiers (the client's
// rejected{refused} counter) treat it exactly like a real refused dial.
var (
	ErrInjectedRefuse   = fmt.Errorf("replayer: injected dial refusal: %w", syscall.ECONNREFUSED)
	ErrInjectedReset    = errors.New("replayer: injected connection reset")
	ErrInjectedTruncate = errors.New("replayer: injected truncated frame")
)

// FaultConfig sets per-operation fault probabilities, all in [0,1].
type FaultConfig struct {
	// Seed drives every fault decision. Each wrapped connection derives its
	// own rand.Rand from (Seed, connection index), so a connection's fault
	// stream is independent of what other connections do.
	Seed int64
	// RefuseRate is the probability that a dial is refused outright.
	RefuseRate float64
	// ResetRate is the probability that a read or write hits an injected
	// connection reset (the connection is closed underneath the caller).
	ResetRate float64
	// StallRate is the probability that a read stalls for StallFor before
	// touching the wire — long enough to trip the caller's read deadline.
	StallRate float64
	// TruncateRate is the probability that a write delivers only half the
	// frame and then severs the connection, corrupting the peer's stream.
	TruncateRate float64
	// StallFor is how long a stalled read sleeps (default 100ms; set it
	// above the client's IOTimeout so stalls manifest as deadline misses).
	StallFor time.Duration
}

// FaultStats counts injected faults, for test assertions and CLI reporting.
type FaultStats struct {
	Dials       int64 // dial attempts seen by the injector
	Refused     int64 // dials refused
	Resets      int64 // injected connection resets
	Stalls      int64 // injected read stalls
	Truncations int64 // injected truncated writes
}

// FaultInjector deterministically injects network faults into dials,
// connections, and listeners. It is safe for concurrent use.
type FaultInjector struct {
	cfg FaultConfig

	mu    sync.Mutex
	conns int64
	stats FaultStats
}

// NewFaultInjector builds an injector; a zero config injects nothing.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.StallFor <= 0 {
		cfg.StallFor = 100 * time.Millisecond
	}
	return &FaultInjector{cfg: cfg}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultInjector) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// newConnRng derives the rand stream for the next wrapped connection.
func (f *FaultInjector) newConnRng() *rand.Rand {
	f.mu.Lock()
	f.conns++
	n := f.conns
	f.mu.Unlock()
	// splitmix-style combination keeps per-connection streams decorrelated.
	return rand.New(rand.NewSource(f.cfg.Seed ^ int64(uint64(n)*0x9E3779B97F4A7C15)))
}

// Dialer returns a replayer Dialer that refuses a seeded fraction of dials
// and wraps every successful connection in a fault-injecting conn.
func (f *FaultInjector) Dialer() Dialer {
	// The refusal stream gets its own rng so dial decisions do not perturb
	// per-connection fault streams.
	refuseRng := rand.New(rand.NewSource(f.cfg.Seed ^ 0x5DEECE66D))
	var mu sync.Mutex
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		f.mu.Lock()
		f.stats.Dials++
		f.mu.Unlock()
		mu.Lock()
		refuse := f.cfg.RefuseRate > 0 && refuseRng.Float64() < f.cfg.RefuseRate
		mu.Unlock()
		if refuse {
			f.mu.Lock()
			f.stats.Refused++
			f.mu.Unlock()
			return nil, ErrInjectedRefuse
		}
		conn, err := defaultDial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return f.Wrap(conn), nil
	}
}

// Wrap returns conn with fault injection layered on top.
func (f *FaultInjector) Wrap(conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, inj: f, rng: f.newConnRng()}
}

// WrapListener wraps every accepted connection with fault injection,
// exercising the server-side failure paths (a satellite's own NIC glitching).
func (f *FaultInjector) WrapListener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, inj: f}
}

func (f *FaultInjector) count(field *int64) {
	f.mu.Lock()
	*field++
	f.mu.Unlock()
}

// faultConn injects faults in front of a real connection. Each conn owns a
// seeded rng guarded by mu: a client's connection has one user at a time, but
// the server side may see concurrent use.
type faultConn struct {
	net.Conn
	inj *FaultInjector
	mu  sync.Mutex
	rng *rand.Rand
}

// roll draws one fault decision.
func (c *faultConn) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	hit := c.rng.Float64() < p
	c.mu.Unlock()
	return hit
}

func (c *faultConn) Read(b []byte) (int, error) {
	if c.roll(c.inj.cfg.StallRate) {
		c.inj.count(&c.inj.stats.Stalls)
		// Sleep past the caller's deadline; the underlying read then fails
		// with a timeout exactly as a stalled peer would make it.
		time.Sleep(c.inj.cfg.StallFor)
	}
	if c.roll(c.inj.cfg.ResetRate) {
		c.inj.count(&c.inj.stats.Resets)
		_ = c.Conn.Close()
		return 0, ErrInjectedReset
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	if len(b) > 1 && c.roll(c.inj.cfg.TruncateRate) {
		c.inj.count(&c.inj.stats.Truncations)
		n, _ := c.Conn.Write(b[:len(b)/2])
		_ = c.Conn.Close()
		return n, ErrInjectedTruncate
	}
	if c.roll(c.inj.cfg.ResetRate) {
		c.inj.count(&c.inj.stats.Resets)
		_ = c.Conn.Close()
		return 0, ErrInjectedReset
	}
	return c.Conn.Write(b)
}

// faultListener wraps accepted connections with fault injection.
type faultListener struct {
	net.Listener
	inj *FaultInjector
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Wrap(conn), nil
}
