package sim

import (
	"fmt"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/shed"
	"starcdn/internal/trace"
)

// ServeContext carries one request through a policy.
type ServeContext struct {
	First orbit.SatID // first-contact satellite (-1 when none visible)
	Req   *trace.Request
	// TransientDown reports whether a satellite is in a transient outage
	// (served as a miss, §3.4) rather than a long-term one (remapped).
	// Nil means no transient failures are active.
	TransientDown func(orbit.SatID) bool
	// Span, when non-nil, is the request's trace span; policies append one
	// hop per segment the request traverses (AddHop is nil-safe, so
	// instrumented paths need no guard).
	Span *obs.Span
	// ShedStage is the overload-control stage active for this request
	// (shed.StageNormal when no shedder is wired in). Policies hand it to
	// the Ladder, whose gates drop work by stage; the runner handles
	// session admission before Serve is reached.
	ShedStage shed.Stage
	// Phase is the request's phase-timer mark chain (obs.PhaseProfiler):
	// policies mark the obs.PhaseSim* stage boundaries (hash ownership,
	// cache op, relay/ground) as the request traverses them. Mark is
	// nil-safe and free when profiling is off; policies without internal
	// marks leave their serve time attributed to the obs stage. Rare early
	// exits (no coverage, degraded owner, shed short-circuits) skip marking
	// and likewise fall into the obs residue.
	Phase *obs.PhaseClock
}

// Outcome is a policy's answer: where the request was served and the
// latency legs it crossed, which Run prices after the decision (a policy
// never draws). The ISL legs also carry the request's inter-satellite
// traffic: its bytes times the route and relay hops, unless it was shed.
type Outcome struct {
	Source    Source
	ServerSat orbit.SatID // satellite whose cache served or missed
	Legs      Legs
	// Signal is the overload controller's feedback: what overload control
	// did to this request, and whether it was the §3.4 miss-through — the
	// ladder's verdict (Fetched.Signal), so only StarCDN reports one; a
	// baseline's ground serve is its design, not a failure. Four fields in
	// 32 bytes is what the compiler keeps in registers.
	Signal shed.Signal
}

// Policy is a satellite CDN content placement/fetch scheme.
type Policy interface {
	Name() string
	Serve(ctx *ServeContext) Outcome
}

// CacheConfig configures per-satellite caches.
type CacheConfig struct {
	Kind  cache.Kind
	Bytes int64
	// Admission optionally filters what enters the cache on a miss
	// (nil admits everything).
	Admission cache.AdmissionFilter
}

// build constructs one cache instance per the config.
func (cfg CacheConfig) build() cache.Policy {
	p := cache.MustNew(cfg.Kind, cfg.Bytes)
	if cfg.Admission != nil {
		p = cache.WithAdmission(p, cfg.Admission)
	}
	return p
}

// satCaches lazily materialises one cache per satellite slot, indexed by
// SatID. It is the in-memory Fabric.
type satCaches struct {
	cfg    CacheConfig
	caches []cache.Policy
	// phase is the running request's mark chain (nil-safe); the owner Get
	// closes the cache stage on it.
	phase *obs.PhaseClock
}

func newSatCaches(cfg CacheConfig) *satCaches { return &satCaches{cfg: cfg} }

func (s *satCaches) at(id orbit.SatID) cache.Policy {
	for int(id) >= len(s.caches) {
		s.caches = append(s.caches, nil)
	}
	c := s.caches[id]
	if c == nil {
		c = s.cfg.build()
		s.caches[id] = c
	}
	return c
}

// Fetch implements Fabric. The cache stage closes on the Get; the admit is
// charged to the relay/ground stage that follows.
func (s *satCaches) Fetch(sat orbit.SatID, obj cache.ObjectID, size int64, admitMiss bool) (bool, error) {
	c := s.at(sat)
	hit := c.Get(obj)
	s.phase.Mark(obs.PhaseSimCache)
	if !hit && admitMiss {
		admit(c, obj, size)
	}
	return hit, nil
}

// Probe implements Fabric. A touching probe is a Get: it answers the same
// and touches on a hit.
func (s *satCaches) Probe(sat orbit.SatID, obj cache.ObjectID, _ int64, _ Source, touch bool) (bool, error) {
	if touch {
		return s.at(sat).Get(obj), nil
	}
	return s.at(sat).Contains(obj), nil
}

// admit inserts an object, ignoring the object-larger-than-capacity error
// (such objects simply bypass the cache, as in production CDNs). The only
// other error is a non-positive size, which trace.Validate rejects before a
// run starts (TestRunValidation).
func admit(c cache.Policy, obj cache.ObjectID, size int64) {
	_ = c.Admit(obj, size)
}

// NaiveLRU is the paper's first baseline (§5.1): an independent cache on
// every satellite, no coordination.
type NaiveLRU struct {
	caches *satCaches
}

// NewNaiveLRU builds the baseline with the given per-satellite cache config.
func NewNaiveLRU(cfg CacheConfig) *NaiveLRU {
	return &NaiveLRU{caches: newSatCaches(cfg)}
}

// Name implements Policy.
func (p *NaiveLRU) Name() string { return "naive-" + string(p.caches.cfg.Kind) }

// Serve implements Policy.
func (p *NaiveLRU) Serve(ctx *ServeContext) Outcome {
	if ctx.First < 0 {
		ctx.Span.AddHop(obs.Hop{Kind: "ground", Sat: -1})
		return Outcome{Source: SourceNoCover, ServerSat: -1, Legs: Legs{Tail: TailGround}}
	}
	c := p.caches.at(ctx.First)
	if c.Get(ctx.Req.Object) {
		return Outcome{Source: SourceLocal, ServerSat: ctx.First}
	}
	admit(c, ctx.Req.Object, ctx.Req.Size)
	ctx.Span.AddHop(obs.Hop{Kind: "ground", Sat: int(ctx.First)})
	return Outcome{Source: SourceGround, ServerSat: ctx.First, Legs: Legs{Tail: TailGround}}
}

// StaticCache is the paper's idealised north-star baseline (§5.1): orbital
// motion is switched off and every location keeps a permanent cache, as if
// its serving satellites never moved. It is unachievable in practice.
type StaticCache struct {
	cfg    CacheConfig
	caches map[int]cache.Policy // keyed by location
}

// NewStaticCache builds the static baseline.
func NewStaticCache(cfg CacheConfig) *StaticCache {
	return &StaticCache{cfg: cfg, caches: make(map[int]cache.Policy)}
}

// Name implements Policy.
func (p *StaticCache) Name() string { return "static" }

// Serve implements Policy.
func (p *StaticCache) Serve(ctx *ServeContext) Outcome {
	c, ok := p.caches[ctx.Req.Location]
	if !ok {
		c = p.cfg.build()
		p.caches[ctx.Req.Location] = c
	}
	if c.Get(ctx.Req.Object) {
		return Outcome{Source: SourceLocal, ServerSat: -1}
	}
	admit(c, ctx.Req.Object, ctx.Req.Size)
	return Outcome{Source: SourceGround, ServerSat: -1, Legs: Legs{Tail: TailGround}}
}

// StarCDNOptions toggles the two StarCDN mechanisms, yielding the paper's
// ablations: full StarCDN (both on), StarCDN-Fetch (hashing only, relay off),
// and StarCDN-Hashing (relay only, hashing off). Prefetch enables the §3.3
// proactive alternative to relayed fetch, which the paper evaluated and
// rejected: every scheduler epoch a satellite copies its west neighbour's
// hottest PrefetchCount objects ahead of demand.
type StarCDNOptions struct {
	Hashing bool
	Relay   bool

	Prefetch      bool
	PrefetchCount int // objects pulled per epoch (default 32)
}

// StarCDN is the paper's system (§3): consistent-hashing routing to a bucket
// owner, relayed fetch from same-bucket inter-orbit neighbours on a miss,
// and remap-based failure handling.
type StarCDN struct {
	hash   *core.HashScheme // the scheme requests are served through
	opts   StarCDNOptions
	ladder Ladder
	caches *satCaches
	// relayStats receives Table 3 availability tallies when non-nil.
	relayStats *RelayAvailability
	// prefetch implements the §3.3 proactive alternative when enabled.
	prefetch *prefetcher
}

// NewStarCDN builds a StarCDN policy over the hash scheme. With hashing off
// the policy serves through the one-bucket scheme on the same grid (§3.2 at
// L = 1): every first contact is its own owner.
func NewStarCDN(h *core.HashScheme, cfg CacheConfig, opts StarCDNOptions) *StarCDN {
	if !opts.Hashing {
		h = core.OneBucket(h.Grid())
	}
	p := &StarCDN{hash: h, opts: opts, caches: newSatCaches(cfg),
		ladder: Ladder{Hash: h, Relay: opts.Relay}}
	if opts.Prefetch {
		p.prefetch = newPrefetcher(opts.PrefetchCount)
	}
	return p
}

// PrefetchStats returns the prefetcher accounting (zero value when the
// policy runs without prefetching).
func (p *StarCDN) PrefetchStats() PrefetchStats {
	if p.prefetch == nil {
		return PrefetchStats{}
	}
	return p.prefetch.stats
}

// SetRelayStats wires a Table 3 tally sink: the Table 3 experiment passes
// its own RelayAvailability and reads it after the run.
func (p *StarCDN) SetRelayStats(r *RelayAvailability) { p.relayStats = r }

// ObjectBucket returns the consistent-hash bucket that owns obj (always 0
// with hashing off: one bucket carries every request). The popularity
// telemetry keys per-bucket load on it; policies without a bucket structure
// simply don't implement the interface.
func (p *StarCDN) ObjectBucket(obj cache.ObjectID) int {
	return int(p.hash.BucketOf(obj))
}

// Name implements Policy.
func (p *StarCDN) Name() string {
	switch {
	case p.opts.Prefetch:
		return fmt.Sprintf("starcdn-prefetch-L%d", p.hash.Buckets())
	case p.opts.Hashing && p.opts.Relay:
		return fmt.Sprintf("starcdn-L%d", p.hash.Buckets())
	case p.opts.Hashing:
		return fmt.Sprintf("starcdn-fetch-L%d", p.hash.Buckets()) // relay disabled
	case p.opts.Relay:
		return "starcdn-hashing" // hashing disabled
	default:
		return "starcdn-none"
	}
}

// Serve implements Policy: the Ladder decides, over the in-memory caches;
// Serve lays the latency legs, span hops and phase marks over its verdict —
// the route legs after Route, the relay or ground leg after Fetch.
func (p *StarCDN) Serve(ctx *ServeContext) Outcome {
	req := ctx.Req
	rt := p.ladder.Route(ctx.First, req.Object, ctx.ShedStage, ctx.TransientDown)
	if !rt.Contact {
		out := Outcome{Source: rt.Source, ServerSat: rt.Home, Signal: rt.Signal()}
		if rt.Source != SourceShed {
			out.Legs.Tail = TailGround
		}
		ctx.Span.AddHop(rt.Hop())
		return out
	}
	home := rt.Home
	ph, sh := p.hash.RoutingHops(ctx.First, home)
	if p.prefetch != nil {
		p.prefetch.maybePrefetch(p, home, req.TimeSec)
	}
	// Content served away from the first contact rides the ISLs back.
	out := Outcome{ServerSat: home, Legs: Legs{PlaneHops: uint16(ph), SlotHops: uint16(sh)}}
	ctx.Span.AddHop(obs.Hop{Kind: "owner", Sat: int(home), ISLHops: ph + sh})
	ctx.Phase.Mark(obs.PhaseSimHash)
	p.caches.phase = ctx.Phase
	// No error to handle: satCaches' Fetch and Probe return a literal nil.
	got, _ := p.ladder.Fetch(p.caches, rt, req, ctx.ShedStage, p.relayStats)
	out.Source, out.Signal = got.Source, got.Signal()
	switch got.Source {
	case SourceLocal, SourceBucket:
		if p.prefetch != nil {
			p.prefetch.recordHit(home, req.Object)
		}
	case SourceShed:
		ctx.Span.AddHop(obs.Hop{Kind: "shed", Sat: int(home)})
	case SourceRelayWest, SourceRelayEast:
		out.Legs.RelayHops = uint8(p.hash.RelayHops())
		ctx.Span.AddHop(obs.Hop{Kind: got.Source.String(), Sat: int(got.Relay),
			ISLHops: p.hash.RelayHops()})
		ctx.Phase.Mark(obs.PhaseSimRelay)
	case SourceGround:
		out.Legs.Tail = TailGround
		ctx.Span.AddHop(obs.Hop{Kind: "ground", Sat: int(home)})
		ctx.Phase.Mark(obs.PhaseSimRelay)
	}
	return out
}
