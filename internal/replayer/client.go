package replayer

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/shed"
)

// Dialer opens a TCP connection to addr. timeout <= 0 means the operating
// system default. Injectable so fault injection (and tests) can interpose.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

// defaultDial is the production dialer.
func defaultDial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return net.Dial("tcp", addr)
}

// ClientOptions configures a fault-tolerant client.
type ClientOptions struct {
	// DialTimeout caps each dial attempt (0 = OS default).
	DialTimeout time.Duration
	// IOTimeout is the per-frame read/write deadline (0 = none). Every
	// round trip arms the deadline anew, so one stalled server cannot hang
	// a replay for longer than IOTimeout per attempt.
	IOTimeout time.Duration
	// Retry bounds reconnect attempts; the zero value performs exactly one
	// attempt (fail-fast).
	Retry RetryPolicy
	// Seed seeds the backoff jitter stream.
	Seed int64
	// Dial overrides the connection factory (nil = real TCP dials).
	Dial Dialer
	// Obs, when non-nil, registers the client-side series: attempt/retry/
	// failure counters and the frame-latency histogram under the
	// starcdn_client_* names.
	Obs *obs.Registry
	// Tracer, when non-nil, receives client-side child spans for retries of
	// requests sent with a sampled context (one span per backoff, parented
	// under the propagated hop span).
	Tracer *obs.Tracer
	// Phases, when non-nil, attributes each round trip's wall-clock cost to
	// the replay stages (dial, frame write, frame read, retry
	// backoff). Build it with obs.NewReplayPhases — the client marks the
	// obs.PhaseReplay* stage indices. Like Obs, enabling it cannot change
	// replay behaviour.
	Phases *obs.PhaseProfiler
}

// clientObs holds the client's pre-resolved instruments. A nil *clientObs is
// the disabled configuration; the wall-clock frame timer is only armed when
// observability is on, so the no-op path never calls time.Now.
type clientObs struct {
	attempts *obs.Counter
	retries  *obs.Counter
	failures *obs.Counter
	frameMs  *obs.Histogram
	// rejected counts terminal rejections by cause: an overload-control
	// shed (the server said no on purpose), an exhausted deadline, or a
	// refused dial (dead server). Retried-then-recovered attempts are
	// retries, not rejections.
	rejShed     *obs.Counter
	rejDeadline *obs.Counter
	rejRefused  *obs.Counter
}

func newClientObs(reg *obs.Registry) *clientObs {
	if reg == nil {
		return nil
	}
	return &clientObs{
		attempts:    reg.Counter("starcdn_client_attempts_total"),
		retries:     reg.Counter("starcdn_client_retries_total"),
		failures:    reg.Counter("starcdn_client_failures_total"),
		frameMs:     reg.Histogram("starcdn_client_frame_ms", nil),
		rejShed:     reg.Counter("starcdn_client_rejected_total", obs.L("reason", "shed")),
		rejDeadline: reg.Counter("starcdn_client_rejected_total", obs.L("reason", "deadline")),
		rejRefused:  reg.Counter("starcdn_client_rejected_total", obs.L("reason", "refused")),
	}
}

// recordTerminal classifies a round trip's terminal failure for the
// rejected_total counters (nil-safe). Stalls surface as deadline timeouts,
// dead servers as refused dials; other causes (resets, truncation) stay in
// the catch-all failures counter only.
func (o *clientObs) recordTerminal(err error) {
	if o == nil {
		return
	}
	o.failures.Inc()
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		o.rejDeadline.Inc()
	case errors.Is(err, syscall.ECONNREFUSED):
		o.rejRefused.Inc()
	}
}

// Client issues cache operations to satellite servers, pooling one TCP
// connection per address.
//
// Locking is two-level: the Client mutex guards only the pool map and is
// never held across a dial or a round trip; each address has its own lock
// that serialises dialing and frame exchange on that connection. A stalled
// or dead server therefore delays only operations against that server —
// traffic to every other satellite proceeds unimpeded.
type Client struct {
	mu    sync.Mutex
	conns map[string]*poolEntry

	dialTimeout time.Duration
	ioTimeout   time.Duration
	retry       RetryPolicy
	dial        Dialer
	obs         *clientObs
	tracer      *obs.Tracer
	phases      *obs.PhaseProfiler

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter
}

// poolEntry is one address's pooled connection plus its serialising lock.
type poolEntry struct {
	mu   sync.Mutex
	conn net.Conn
	// scratch is the frame marshal buffer for this connection, guarded by mu
	// like the conn it serves. Reusing it keeps the per-request exchange
	// allocation-free (see writeFrameBuf).
	scratch [frameSize]byte
}

// NewClient returns a fail-fast client: no deadlines, no retries — the
// legacy behaviour, appropriate when the cluster is known healthy and any
// error should abort the replay.
func NewClient() *Client {
	return NewClientOpts(ClientOptions{})
}

// NewClientOpts returns a client with fault-handling configured.
func NewClientOpts(o ClientOptions) *Client {
	d := o.Dial
	if d == nil {
		d = defaultDial
	}
	return &Client{
		conns:       make(map[string]*poolEntry),
		dialTimeout: o.DialTimeout,
		ioTimeout:   o.IOTimeout,
		retry:       o.Retry,
		dial:        d,
		obs:         newClientObs(o.Obs),
		tracer:      o.Tracer,
		phases:      o.Phases,
		rng:         rand.New(rand.NewSource(o.Seed)),
	}
}

// entry returns the pool slot for addr, creating it if needed. Only the map
// access is under the client mutex; dialing happens under the entry lock.
func (c *Client) entry(addr string) *poolEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.conns[addr]
	if !ok {
		e = &poolEntry{}
		c.conns[addr] = e
	}
	return e
}

// drop closes and forgets a broken connection. The close error is
// deliberately discarded: the connection is already known to be broken.
func (c *Client) drop(addr string) {
	e := c.entry(addr)
	e.mu.Lock()
	e.dropLocked()
	e.mu.Unlock()
}

// dropLocked severs the pooled connection; callers hold e.mu.
func (e *poolEntry) dropLocked() {
	if e.conn != nil {
		_ = e.conn.Close()
		e.conn = nil
	}
}

// Close closes all pooled connections, returning the first close error.
func (c *Client) Close() error {
	c.mu.Lock()
	entries := make([]*poolEntry, 0, len(c.conns))
	for _, e := range c.conns {
		entries = append(entries, e)
	}
	c.conns = make(map[string]*poolEntry)
	c.mu.Unlock()
	var first error
	for _, e := range entries {
		e.mu.Lock()
		if e.conn != nil {
			if err := e.conn.Close(); err != nil && first == nil {
				first = err
			}
			e.conn = nil
		}
		e.mu.Unlock()
	}
	return first
}

// backoff draws one jittered backoff delay thread-safely.
func (c *Client) backoff(attempt int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.retry.Backoff(attempt, c.rng)
}

// roundTrip sends one request frame and reads the response, retrying per the
// client's RetryPolicy with jittered backoff. Each attempt dials (if the
// pool has no live connection), arms the I/O deadline, and exchanges one
// frame; any failure severs the pooled connection so the next attempt
// reconnects from scratch — which also transparently follows a satellite
// server that was killed and revived on a new address... as long as the
// caller re-resolves the address, which Replay does per request.
//
// A non-nil sampled sc rides ahead of the request frame as an OpTraceContext
// frame and each backoff emits a "retry" child span under sc.Parent, so a
// trace records not just where a request was served but every stall it
// survived on the way.
func (c *Client) roundTrip(addr string, op Op, obj cache.ObjectID, size int64, sc *obs.SpanContext) (Status, error) {
	var lastErr error
	for attempt := 0; attempt < c.retry.attempts(); attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt)
			if c.obs != nil {
				c.obs.retries.Inc()
			}
			c.emitRetrySpan(sc, attempt, d, lastErr)
			rc := c.phases.Clock()
			rc.Begin()
			time.Sleep(d)
			rc.Mark(obs.PhaseReplayRetry)
		}
		if c.obs != nil {
			c.obs.attempts.Inc()
		}
		st, err := c.tryOnce(addr, op, obj, size, sc)
		if err == nil {
			// A shed is a deliberate answer, not a transport fault: the
			// retry loop must never re-offer load the server just refused.
			if st == StatusShed && c.obs != nil {
				c.obs.rejShed.Inc()
			}
			return st, nil
		}
		lastErr = err
	}
	c.obs.recordTerminal(lastErr)
	return StatusError, lastErr
}

// emitRetrySpan records one backoff as a child span of the propagated hop.
func (c *Client) emitRetrySpan(sc *obs.SpanContext, attempt int, backoff time.Duration, cause error) {
	if c.tracer == nil || sc == nil || !sc.Sampled {
		return
	}
	span := &obs.Span{
		TraceID: sc.TraceString(),
		SpanID:  obs.SpanIDString(c.tracer.NewSpanID()),
		Parent:  obs.SpanIDString(sc.Parent),
		Proc:    "client",
		Kind:    "retry",
		WallMs:  float64(backoff) / float64(time.Millisecond),
	}
	if cause != nil {
		span.Source = "attempt-" + strconv.Itoa(attempt)
	}
	c.tracer.Emit(span)
}

// tryOnce performs a single attempt under the per-address lock.
func (c *Client) tryOnce(addr string, op Op, obj cache.ObjectID, size int64, sc *obs.SpanContext) (Status, error) {
	e := c.entry(addr)
	e.mu.Lock()
	defer e.mu.Unlock()
	// The mark chain is a stack value per attempt: tryOnce runs concurrently
	// across addresses, and the clocks only meet at the profiler's atomics.
	pc := c.phases.Clock()
	pc.Begin()
	if e.conn == nil {
		conn, err := c.dial(addr, c.dialTimeout)
		if err != nil {
			return StatusError, fmt.Errorf("replayer: dial %s: %w", addr, err)
		}
		e.conn = conn
		pc.Mark(obs.PhaseReplayDial)
	}
	if c.ioTimeout > 0 {
		if err := e.conn.SetDeadline(time.Now().Add(c.ioTimeout)); err != nil {
			e.dropLocked()
			return StatusError, err
		}
	}
	var frameStart time.Time
	if c.obs != nil {
		frameStart = time.Now()
	}
	if sc != nil && sc.Sampled {
		if err := writeTraceContext(e.conn, *sc); err != nil {
			e.dropLocked()
			return StatusError, err
		}
	}
	if err := writeRequest(e.conn, &e.scratch, op, obj, size); err != nil {
		e.dropLocked()
		return StatusError, err
	}
	pc.Mark(obs.PhaseReplayWrite)
	st, err := readResponse(e.conn, &e.scratch)
	if err != nil {
		e.dropLocked()
		return StatusError, err
	}
	pc.Mark(obs.PhaseReplayRead)
	if c.obs != nil {
		c.obs.frameMs.Observe(float64(time.Since(frameStart)) / float64(time.Millisecond))
	}
	return st, nil
}

// Get performs a lookup (with recency update) and reports a hit.
func (c *Client) Get(addr string, obj cache.ObjectID, size int64) (bool, error) {
	return c.GetCtx(addr, obj, size, nil)
}

// GetCtx is Get with an optional propagated trace context. A server-side
// shed surfaces as shed.ErrShed — already terminal (no retry happened) and
// distinguishable from transport faults with errors.Is.
func (c *Client) GetCtx(addr string, obj cache.ObjectID, size int64, sc *obs.SpanContext) (bool, error) {
	st, err := c.roundTrip(addr, OpGet, obj, size, sc)
	if err != nil {
		return false, err
	}
	if st == StatusShed {
		return false, shed.ErrShed
	}
	return st == StatusHit, nil
}

// Contains peeks without updating recency.
func (c *Client) Contains(addr string, obj cache.ObjectID) (bool, error) {
	return c.ContainsCtx(addr, obj, nil)
}

// ContainsCtx is Contains with an optional propagated trace context. Sheds
// surface as shed.ErrShed, as in GetCtx.
func (c *Client) ContainsCtx(addr string, obj cache.ObjectID, sc *obs.SpanContext) (bool, error) {
	st, err := c.roundTrip(addr, OpContains, obj, 0, sc)
	if err != nil {
		return false, err
	}
	if st == StatusShed {
		return false, shed.ErrShed
	}
	return st == StatusHit, nil
}

// Admit inserts an object into the remote cache.
func (c *Client) Admit(addr string, obj cache.ObjectID, size int64) error {
	return c.AdmitCtx(addr, obj, size, nil)
}

// AdmitCtx is Admit with an optional propagated trace context. Sheds surface
// as shed.ErrShed, as in GetCtx.
func (c *Client) AdmitCtx(addr string, obj cache.ObjectID, size int64, sc *obs.SpanContext) error {
	st, err := c.roundTrip(addr, OpAdmit, obj, size, sc)
	if err != nil {
		return err
	}
	if st == StatusShed {
		return shed.ErrShed
	}
	if st != StatusOK {
		return fmt.Errorf("replayer: admit rejected with status %d", st)
	}
	return nil
}
