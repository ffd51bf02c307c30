package replayer

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"syscall"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
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

// clientOptions configures a fault-tolerant client.
type clientOptions struct {
	// DialTimeout caps each dial attempt (0 = OS default).
	DialTimeout time.Duration
	// IOTimeout is the read/write deadline of one attempt — a frame or a
	// pipelined batch of them — at one server (0 = none). Every attempt arms
	// it anew, so one stalled server cannot hang a replay for longer than
	// IOTimeout per attempt.
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
	// rejected counts terminal rejections by cause: an exhausted deadline
	// or a refused dial (dead server). Retried-then-recovered attempts are
	// retries, not rejections.
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
// connection per address and pipelining each attempt's frames on it.
//
// A Client has one owner: it holds no lock, and its methods must not be
// called concurrently. A replay's only caller is its window's flusher, and
// flushes never overlap. An attempt writes to every address before it reads
// any answer, so a stalled server stalls the whole exchange for up to
// IOTimeout per attempt; the other servers' frames are already on their wire.
type Client struct {
	conns map[string]*poolEntry
	one   oneFrame // roundTrip's call and pipe

	dialTimeout time.Duration
	ioTimeout   time.Duration
	retry       RetryPolicy
	dial        Dialer
	obs         *clientObs
	tracer      *obs.Tracer
	phases      *obs.PhaseProfiler
	rng         *rand.Rand // backoff jitter
}

// poolEntry is one address's pooled connection.
type poolEntry struct {
	conn net.Conn
	r    *bufio.Reader // the connection's answers, a batch per read; new per dial
	// out and scratch are the write and read buffers for this connection.
	// Reusing them keeps the per-request exchange allocation-free.
	out     []byte
	scratch [frameSize]byte
	sentAt  time.Time // the attempt's write, for the frame-latency histogram
}

// call is one request frame and, once exchanged, its answer.
type call struct {
	addr string
	op   Op
	obj  cache.ObjectID
	size int64
	sc   *obs.SpanContext // a sampled context rides ahead of the frame
	req  int64            // request index: frames to one address go out in its order
	st   Status
	err  error

	// For the window: the frame's server, the servers its request may still
	// send to after it, whether a flush held it back, and the answered signal.
	sat   orbit.SatID
	later []orbit.SatID
	held  bool
	ready chan struct{}
}

// pipe is one address's share of an attempt: the calls it has not answered
// yet and how the last attempt at them went.
type pipe struct {
	addr  string
	calls []*call
	e     *poolEntry
	sent  bool // the last attempt may have delivered its frames
	err   error
}

// NewClient returns a fail-fast client: no deadlines, no retries — the
// legacy behaviour, appropriate when the cluster is known healthy and any
// error should abort the replay.
func NewClient() *Client {
	return newClientOpts(clientOptions{})
}

// newClientOpts returns a client with fault-handling configured.
func newClientOpts(o clientOptions) *Client {
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

// entry returns the pool slot for addr, creating it if needed.
func (c *Client) entry(addr string) *poolEntry {
	e, ok := c.conns[addr]
	if !ok {
		e = &poolEntry{}
		c.conns[addr] = e
	}
	return e
}

// forget severs the pooled connection to addr, if any.
func (c *Client) forget(addr string) {
	if e, ok := c.conns[addr]; ok {
		e.drop()
	}
}

// drop severs the pooled connection. The close error is deliberately
// discarded: the connection is already known to be broken.
func (e *poolEntry) drop() {
	if e.conn != nil {
		_ = e.conn.Close()
		e.conn = nil
	}
}

// Close closes all pooled connections, returning the first close error.
func (c *Client) Close() error {
	var first error
	for _, e := range c.conns {
		if e.conn != nil {
			if err := e.conn.Close(); err != nil && first == nil {
				first = err
			}
			e.conn = nil
		}
	}
	clear(c.conns)
	return first
}

// roundTrip exchanges one request frame, retrying per the client's
// RetryPolicy. A sampled sc rides ahead of the frame as an OpTraceContext
// frame, and each backoff emits a "retry" child span under sc.Parent.
func (c *Client) roundTrip(addr string, op Op, obj cache.ObjectID, size int64, sc *obs.SpanContext) (Status, error) {
	f := &c.one
	f.c = call{addr: addr, op: op, obj: obj, size: size, sc: sc}
	f.calls[0] = &f.c
	f.pipes[0] = pipe{addr: addr, calls: f.calls[:]}
	c.exchange(f.pipes[:])
	return f.c.st, f.c.err
}

// oneFrame is roundTrip's call and pipe. The attempt path lets them escape,
// so the client holds one to keep a round trip allocation-free.
type oneFrame struct {
	c     call
	calls [1]*call
	pipes [1]pipe
}

// exchange answers every call in pipes, one pipe per address, each pipe's
// calls in the order their frames must reach the server; what the first
// attempt leaves unanswered is retried address by address.
func (c *Client) exchange(pipes []pipe) {
	c.attempt(pipes)
	for i := range pipes {
		c.settle(pipes[i : i+1])
	}
}

// attempt writes every pipe's frames, then reads every pipe's answers in
// order — so the servers work on them together — and leaves in each pipe the
// calls it did not answer. A failure severs the pooled connection, so the next
// attempt redials (following a server revived on a new address, as long as
// the caller re-resolves it, which the replay does per request).
func (c *Client) attempt(pipes []pipe) {
	// The mark chain is a stack value per attempt: attempts run concurrently
	// across clients, and the clocks only meet at the profiler's atomics.
	pc := c.phases.Clock()
	pc.Begin()
	for i := range pipes {
		p := &pipes[i]
		p.e = c.entry(p.addr)
		p.sent, p.err = c.send(p, &pc)
	}
	for i := range pipes {
		p := &pipes[i]
		for e := p.e; p.err == nil && len(p.calls) > 0; p.calls = p.calls[1:] {
			var st Status
			if st, p.err = readResponse(e.r, &e.scratch); p.err != nil {
				e.drop()
				break
			}
			p.calls[0].st, p.calls[0].err = st, nil
			if c.obs != nil {
				c.obs.frameMs.Observe(float64(time.Since(e.sentAt)) / float64(time.Millisecond))
			}
		}
		if p.err == nil {
			pc.Mark(obs.PhaseReplayRead)
		}
	}
}

// send dials if the pool has no live connection, arms the I/O deadline and
// writes a pipe's frames, each sampled context ahead of its frame, as one
// buffer. sent is whether any of them may have reached the server.
func (c *Client) send(p *pipe, pc *obs.PhaseClock) (sent bool, err error) {
	e := p.e
	if c.obs != nil {
		c.obs.attempts.Add(int64(len(p.calls)))
	}
	dialed := e.conn == nil
	if dialed {
		conn, err := c.dial(p.addr, c.dialTimeout)
		if err != nil {
			return false, fmt.Errorf("replayer: dial %s: %w", p.addr, err)
		}
		e.conn = conn
		pc.Mark(obs.PhaseReplayDial)
	}
	if c.ioTimeout > 0 {
		if err := e.conn.SetDeadline(time.Now().Add(c.ioTimeout)); err != nil {
			e.drop()
			return false, err
		}
	}
	if dialed {
		e.r = bufio.NewReader(e.conn)
	}
	e.out = e.out[:0]
	for _, cl := range p.calls {
		if cl.sc != nil && cl.sc.Sampled {
			e.out = appendTraceContext(e.out, *cl.sc)
		}
		e.out = appendFrame(e.out, uint8(cl.op), uint64(cl.obj), uint64(cl.size))
	}
	if c.obs != nil {
		e.sentAt = time.Now()
	}
	if _, err := e.conn.Write(e.out); err != nil {
		e.drop()
		return true, err
	}
	pc.Mark(obs.PhaseReplayWrite)
	return true, nil
}

// settle retries what an attempt left unanswered at one address, with
// jittered backoff, until the attempt budget runs out. An OpFetch that the
// failed attempt may have delivered is not offered again (see RetryPolicy):
// it fails with that attempt's error.
func (c *Client) settle(one []pipe) {
	p := &one[0]
	for attempt := 1; p.err != nil; attempt++ {
		retry := p.calls[:0]
		for _, cl := range p.calls {
			if attempt < c.retry.attempts() && !(p.sent && cl.op == OpFetch) {
				retry = append(retry, cl)
				continue
			}
			cl.st, cl.err = StatusError, p.err
			c.obs.recordTerminal(p.err)
		}
		if p.calls = retry; len(retry) == 0 {
			return
		}
		d := c.retry.Backoff(attempt, c.rng)
		for _, cl := range retry {
			if c.obs != nil {
				c.obs.retries.Inc()
			}
			c.emitRetrySpan(cl.sc, attempt, d)
		}
		rc := c.phases.Clock()
		rc.Begin()
		time.Sleep(d)
		rc.Mark(obs.PhaseReplayRetry)
		c.attempt(one)
	}
}

// emitRetrySpan records one backoff as a child span of the propagated hop.
func (c *Client) emitRetrySpan(sc *obs.SpanContext, attempt int, backoff time.Duration) {
	if c.tracer == nil || sc == nil || !sc.Sampled {
		return
	}
	c.tracer.Emit(&obs.Span{
		TraceID: sc.TraceString(),
		SpanID:  obs.SpanIDString(c.tracer.NewSpanID()),
		Parent:  obs.SpanIDString(sc.Parent),
		Proc:    "client",
		Kind:    "retry",
		Source:  "attempt-" + strconv.Itoa(attempt),
		WallMs:  float64(backoff) / float64(time.Millisecond),
	})
}

// hitAnswer reads the answer to a Get-shaped frame — OpGet, OpContains,
// OpFetch, OpProbe: a hit or a miss.
func hitAnswer(st Status, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return st == StatusHit, nil
}

// Get performs a lookup (with recency update) and reports a hit.
func (c *Client) Get(addr string, obj cache.ObjectID, size int64) (bool, error) {
	return hitAnswer(c.roundTrip(addr, OpGet, obj, size, nil))
}

// Contains peeks without updating recency.
func (c *Client) Contains(addr string, obj cache.ObjectID) (bool, error) {
	return hitAnswer(c.roundTrip(addr, OpContains, obj, 0, nil))
}

// Admit inserts an object into the remote cache.
func (c *Client) Admit(addr string, obj cache.ObjectID, size int64) error {
	st, err := c.roundTrip(addr, OpAdmit, obj, size, nil)
	switch {
	case err != nil:
		return err
	case st != StatusOK:
		return fmt.Errorf("replayer: admit rejected with status %d", st)
	}
	return nil
}
