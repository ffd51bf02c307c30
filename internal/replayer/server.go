package replayer

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/shed"
)

// ServerOptions configures optional server behaviour.
type ServerOptions struct {
	// Log receives structured server events (accept-loop errors). Nil logs
	// through a stderr text handler; tests inject obs.NewCapture so `make
	// check` output stays clean and accept errors can be asserted on as
	// records rather than formatted strings.
	Log *slog.Logger
	// Obs, when non-nil, registers live per-satellite series: request
	// counters, hit-rate gauges, open-connection gauges, and — on clusters —
	// kill/revive counters.
	Obs *obs.Registry
	// Injector, when non-nil, wraps every accepted connection with
	// deterministic fault injection (server-side chaos).
	Injector *FaultInjector
	// Cache, when non-nil, is served instead of a freshly built one.
	// Cluster.Revive uses this to model a §3.4 reboot whose local storage
	// survives the outage, matching the in-process simulator, whose
	// per-satellite caches persist across failure events.
	Cache cache.Policy
	// Meter seeds the server-side accounting (revive continuity).
	Meter cache.Meter
	// Tracer, when non-nil, emits one child span per cache operation that
	// arrives behind a sampled OpTraceContext frame: the server-side half of
	// the distributed trace, written to this process's own JSONL stream and
	// stitched back together by starcdn-trace -assemble. Servers without a
	// tracer still parse context frames — propagation costs nothing to
	// accept.
	Tracer *obs.Tracer
	// Shedder, when non-nil, enforces overload control at the wire: at
	// stage ≥ 1 relay probes (OpContains, OpProbe) are refused, at stage ≥ 3
	// owner-miss fetches (OpGet or OpFetch on a miss, OpAdmit), each
	// answered StatusShed. Cluster servers share the one controller, like
	// satellites sharing a control plane; it survives Kill/Revive with the
	// rest of the options.
	Shedder *shed.Controller
}

// Server runs one satellite's cache behind a TCP listener.
type Server struct {
	id     orbit.SatID
	ln     net.Listener
	addr   string // ln's address, formatted once
	log    *slog.Logger
	tracer *obs.Tracer
	shed   *shed.Controller
	proc   string     // span Proc label, "sat-<id>"
	mu     sync.Mutex // serialises cache access across connections
	cache  cache.Policy
	meter  cache.Meter

	// obs handles (nil when observability is off; updates are no-ops).
	reqs    *obs.Counter
	hitRate *obs.Gauge

	wg     sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer starts a cache server on a fresh loopback port.
func NewServer(id orbit.SatID, kind cache.Kind, capacity int64) (*Server, error) {
	return NewServerOpts(id, kind, capacity, ServerOptions{})
}

// NewServerOpts starts a cache server with explicit options.
func NewServerOpts(id orbit.SatID, kind cache.Kind, capacity int64, opts ServerOptions) (*Server, error) {
	c := opts.Cache
	if c == nil {
		var err error
		c, err = cache.New(kind, capacity)
		if err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("replayer: listen: %w", err)
	}
	if opts.Injector != nil {
		ln = opts.Injector.WrapListener(ln)
	}
	s := &Server{
		id:     id,
		ln:     ln,
		addr:   ln.Addr().String(),
		log:    obs.NewLogger(nil).With("sat", int(id)),
		tracer: opts.Tracer,
		shed:   opts.Shedder,
		proc:   "sat-" + strconv.Itoa(int(id)),
		cache:  c,
		meter:  opts.Meter,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	if opts.Log != nil {
		s.log = opts.Log.With("sat", int(id))
	}
	if opts.Obs != nil {
		sat := obs.L("sat", strconv.Itoa(int(id)))
		s.reqs = opts.Obs.Counter("starcdn_server_requests_total", sat)
		s.hitRate = opts.Obs.Gauge("starcdn_server_hit_rate", sat)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.addr }

// Meter returns a snapshot of the server-side hit accounting.
func (s *Server) Meter() cache.Meter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meter
}

// Close stops the listener, severs every open connection (a crash does not
// wait for clients to hang up), and waits for the handlers to finish.
func (s *Server) Close() error {
	close(s.closed)
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		// Severing a crashed server's connections; the close error carries
		// no information (the peer sees a reset either way).
		_ = conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.log.Error("accept failed", "err", err)
				return
			}
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	// Handler exit means the client is gone; the close error carries no
	// information worth propagating.
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		_ = conn.Close()
	}()
	// pending holds the trace context delivered by the last OpTraceContext
	// frame; it applies to exactly the next request frame.
	var pending *obs.SpanContext
	// scratch is this handler's frame marshal buffer, reused for every frame
	// on the connection so the serve loop allocates nothing per request.
	var scratch [frameSize]byte
	// A pipelined batch arrives in one read and its answers leave in one write.
	//lint:ignore deadline server handlers block on the next request by design: clients arm per-attempt deadlines on their side, and Server.Close severs every open conn so a stalled client cannot pin the wait group
	r := bufio.NewReader(conn)
	//lint:ignore deadline response writes go to the kernel socket buffer of a loopback conn; a client that never drains is severed by Server.Close, and blocking here models a congested ISL rather than failing the frame
	w := bufio.NewWriter(conn)
	// ready flushes the buffered answers before a read of n bytes that could
	// block: the client may be waiting on them before it sends more.
	ready := func(n int) bool { return r.Buffered() >= n || w.Flush() == nil }
	for ready(frameSize) {
		m, err := readFrameBuf(r, &scratch)
		if err != nil {
			return // client closed, malformed/truncated frame, or broken pipe
		}
		switch m.op {
		case OpTraceContext:
			// The context frame has a fixed 9-byte tail; it elicits no
			// response and arms the context for the next request frame.
			if !ready(traceTailSize) {
				return
			}
			sc, err := readTraceTail(r, m.a, m.b)
			if err != nil {
				return
			}
			pending = &sc
		default:
			if err := s.serveOne(w, &scratch, m, pending); err != nil {
				return
			}
			pending = nil
		}
	}
}

func (s *Server) serveOne(w io.Writer, buf *[frameSize]byte, m message, sc *obs.SpanContext) error {
	var opStart time.Time
	if s.tracer != nil && sc != nil && sc.Sampled {
		opStart = time.Now()
	}
	// Snapshot the stage outside s.mu: the controller has its own lock and
	// the stage holds for the whole operation, exactly as the simulator
	// reads it once per request.
	stage := shed.StageNormal
	if s.shed != nil {
		stage = s.shed.Stage()
	}
	s.mu.Lock()
	st := StatusError
	obj, size := cache.ObjectID(m.a), int64(m.b)
	switch m.op {
	case OpGet, OpFetch:
		hit := s.cache.Get(obj)
		s.meter.Record(size, hit)
		switch {
		case hit:
			st = StatusHit
		case stage.Sheds(core.ValueMissFetch):
			// Stage ≥ 3: hits-only. The Get already ran (recency touched,
			// miss metered — identical to the simulator's stage-3 path);
			// the fetch behind it is refused.
			st = StatusShed
		case m.op == OpGet:
			st = StatusMiss
		case s.admit(obj, size):
			st = StatusMiss
		}
	case OpContains, OpProbe:
		switch {
		case stage.Sheds(core.ValueRelayProbe):
			// Stage ≥ 1: relay probes are refused without touching the
			// cache — the probe is speculative work this server is shedding.
			st = StatusShed
		case m.op == OpContains:
			st = StatusMiss
			if s.cache.Contains(obj) {
				st = StatusHit
			}
		case s.cache.Get(obj):
			// The touch of serving the copy is a Get hit.
			s.meter.Record(size, true)
			st = StatusHit
		default:
			st = StatusMiss
		}
	case OpAdmit:
		switch {
		case stage.Sheds(core.ValueMissFetch):
			st = StatusShed
		case s.admit(obj, size):
			st = StatusOK
		}
	}
	s.reqs.Inc()
	if s.meter.Requests > 0 {
		s.hitRate.Set(float64(s.meter.Hits) / float64(s.meter.Requests))
	}
	s.mu.Unlock()
	if !opStart.IsZero() {
		s.emitOpSpan(m, st, sc, opStart)
	}
	return writeResponse(w, buf, st)
}

// admit inserts an object; one larger than the cache bypasses it, as in
// production CDNs. Callers hold s.mu.
func (s *Server) admit(obj cache.ObjectID, size int64) bool {
	err := s.cache.Admit(obj, size)
	return err == nil || errors.Is(err, cache.ErrTooLarge)
}

// opName labels server-side operation spans.
func opName(op Op) string {
	switch op {
	case OpGet:
		return "get"
	case OpContains:
		return "contains"
	case OpAdmit:
		return "admit"
	case OpFetch:
		return "fetch"
	case OpProbe:
		return "probe"
	default:
		return "op-" + strconv.Itoa(int(op))
	}
}

// emitOpSpan records one served cache operation as a child of the propagated
// client hop span. The measured wall time covers the cache operation under
// the server mutex — the server-side residency of the request, which
// -assemble subtracts from the client hop's wall time to attribute network
// versus serving cost.
func (s *Server) emitOpSpan(m message, st Status, sc *obs.SpanContext, start time.Time) {
	s.tracer.Emit(&obs.Span{
		TraceID: sc.TraceString(),
		SpanID:  obs.SpanIDString(s.tracer.NewSpanID()),
		Parent:  obs.SpanIDString(sc.Parent),
		Proc:    s.proc,
		Kind:    opName(m.op),
		Hit:     st == StatusHit,
		Object:  m.a,
		WallMs:  float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// Cluster is a set of satellite cache servers with a §3.4 availability
// model: servers can be killed mid-replay (their address then refuses
// connections, exactly as a crashed satellite's would) and revived later,
// optionally keeping their cache contents across the outage.
type Cluster struct {
	servers map[orbit.SatID]*Server
	// downAddr maps killed satellites to their last-known (now refusing)
	// address: clients keep dialing it and observe the failure themselves,
	// as on real hardware — there is no healthy-server oracle.
	downAddr map[orbit.SatID]string
	// survivors holds cache contents and meters across kill/revive.
	survivors map[orbit.SatID]ServerOptions
	kind      cache.Kind
	bytes     int64
	sopts     ServerOptions
	mu        sync.Mutex

	// obs handles (nil when observability is off).
	kills   *obs.Counter
	revives *obs.Counter
}

// NewCluster creates an empty cluster; servers spin up lazily per satellite,
// so a 1,296-slot constellation only costs listeners for satellites that
// actually serve traffic.
func NewCluster(kind cache.Kind, capacityBytes int64) (*Cluster, error) {
	return NewClusterOpts(kind, capacityBytes, ServerOptions{})
}

// NewClusterOpts creates a cluster whose servers share the given options
// (error log, server-side fault injector).
func NewClusterOpts(kind cache.Kind, capacityBytes int64, opts ServerOptions) (*Cluster, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("replayer: capacity must be positive")
	}
	if opts.Cache != nil {
		return nil, fmt.Errorf("replayer: cluster options cannot carry a shared cache")
	}
	c := &Cluster{
		servers:   make(map[orbit.SatID]*Server),
		downAddr:  make(map[orbit.SatID]string),
		survivors: make(map[orbit.SatID]ServerOptions),
		kind:      kind,
		bytes:     capacityBytes,
		sopts:     opts,
	}
	if opts.Obs != nil {
		c.kills = opts.Obs.Counter("starcdn_cluster_kills_total")
		c.revives = opts.Obs.Counter("starcdn_cluster_revives_total")
	}
	return c, nil
}

// startLocked starts (or restarts) the server for id; callers hold c.mu.
func (c *Cluster) startLocked(id orbit.SatID) (*Server, error) {
	opts := c.sopts
	if sv, ok := c.survivors[id]; ok {
		opts.Cache = sv.Cache
		opts.Meter = sv.Meter
	}
	s, err := NewServerOpts(id, c.kind, c.bytes, opts)
	if err != nil {
		return nil, err
	}
	delete(c.survivors, id)
	delete(c.downAddr, id)
	c.servers[id] = s
	return s, nil
}

// Addr returns the dial address for a satellite. A killed satellite keeps
// returning its last-known address — which refuses connections — so clients
// experience the outage through the network, not through an API error.
// Unknown satellites lazily start a server, as Server does.
func (c *Cluster) Addr(id orbit.SatID) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if addr, ok := c.downAddr[id]; ok {
		return addr, nil
	}
	if s, ok := c.servers[id]; ok {
		return s.Addr(), nil
	}
	s, err := c.startLocked(id)
	if err != nil {
		return "", err
	}
	return s.Addr(), nil
}

// Kill crashes a satellite's cache server mid-replay: the listener closes,
// every in-flight connection is severed, and the address starts refusing
// dials. The cache contents survive for a later Revive (the §3.4 reboot:
// storage persists, the serving process does not). Killing a satellite that
// never started a server reserves a fresh loopback address and immediately
// releases it, so clients still observe connection-refused dials. Killing an
// already-down satellite is a no-op.
func (c *Cluster) Kill(id orbit.SatID) error {
	c.mu.Lock()
	s, running := c.servers[id]
	if running {
		delete(c.servers, id)
		c.downAddr[id] = s.Addr()
		c.survivors[id] = ServerOptions{Cache: s.cache, Meter: s.Meter()}
		c.kills.Inc()
	} else if _, down := c.downAddr[id]; !down {
		// Never started: bind and release a port so there is a concrete
		// address that refuses connections. (The kernel could hand the
		// port to a later listener; with ephemeral-port cycling this is
		// vanishingly rare within one replay, and the §3.4 degradation
		// path tolerates a mis-delivered connection as a stale answer.)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.mu.Unlock()
			return err
		}
		addr := ln.Addr().String()
		if err := ln.Close(); err != nil {
			c.mu.Unlock()
			return err
		}
		c.downAddr[id] = addr
		c.kills.Inc()
	}
	c.mu.Unlock()
	if running {
		// Closing outside c.mu: Close waits for handlers, and a handler
		// blocked on another cluster call must not deadlock the kill.
		return s.Close()
	}
	return nil
}

// Revive restarts a killed satellite's server on a fresh port, reattaching
// any cache contents that survived the outage. Reviving a live satellite is
// a no-op.
func (c *Cluster) Revive(id orbit.SatID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.servers[id]; ok {
		return nil
	}
	_, err := c.startLocked(id)
	if err == nil {
		c.revives.Inc()
	}
	return err
}

// Health snapshots the cluster's availability for the /healthz endpoint: OK
// iff no satellite server is currently killed, with the down list sorted by
// satellite ID.
func (c *Cluster) Health() obs.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, 0, len(c.downAddr))
	for id := range c.downAddr {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	down := make([]string, len(ids))
	for i, id := range ids {
		down[i] = strconv.Itoa(id)
	}
	return obs.Health{OK: len(down) == 0, Live: len(c.servers), Down: down}
}

// Len returns the number of live servers.
func (c *Cluster) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.servers)
}

// Close stops every server, returning the first error encountered.
func (c *Cluster) Close() error {
	c.mu.Lock()
	servers := make([]*Server, 0, len(c.servers))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	c.servers = make(map[orbit.SatID]*Server)
	c.downAddr = make(map[orbit.SatID]string)
	c.survivors = make(map[orbit.SatID]ServerOptions)
	c.mu.Unlock()
	var first error
	for _, s := range servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
