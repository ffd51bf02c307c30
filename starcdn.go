// Package starcdn is the public API of the StarCDN reproduction: a
// satellite-based content delivery network with LSN-specific consistent
// hashing and relayed fetch (Zheng et al., SIGCOMM 2025), together with the
// SpaceGEN synthetic trace generator and a trace-driven constellation
// simulator.
//
// The typical flow mirrors the paper's evaluation pipeline:
//
//	sys, _ := starcdn.NewSystem(starcdn.SystemOptions{Buckets: 4})
//	prod, _ := starcdn.GenerateWorkload(starcdn.VideoClass(), sys.Cities, 42, 1_000_000, 86400)
//	models, _ := starcdn.FitModels(prod)             // footprint descriptors
//	syn, _ := starcdn.GenerateSynthetic(models, 7, 5_000_000) // SpaceGEN
//	policy := sys.StarCDN(starcdn.CacheConfig{Kind: starcdn.LRU, Bytes: 50 << 30})
//	metrics, _ := sys.Simulate(syn, policy, starcdn.SimConfig{Seed: 1})
//	fmt.Println(metrics)
package starcdn

import (
	"fmt"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/replayer"
	"starcdn/internal/session"
	"starcdn/internal/sim"
	"starcdn/internal/spacegen"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// Re-exported types. Aliases give external users access to the full internal
// functionality through the public package.
type (
	// Constellation is a Walker-delta LEO shell with an activity mask.
	Constellation = orbit.Constellation
	// ShellConfig describes the constellation geometry.
	ShellConfig = orbit.Config
	// SatID identifies a satellite slot.
	SatID = orbit.SatID
	// Grid is the four-ISL torus over the constellation.
	Grid = topo.Grid
	// LinkModel is the per-link-class delay/bandwidth model (Table 1).
	LinkModel = topo.LinkModel
	// HashScheme is StarCDN's consistent hashing over the grid (§3.2).
	HashScheme = core.HashScheme
	// BucketID identifies one of the L hash buckets.
	BucketID = core.BucketID
	// Trace is a time-ordered request trace with a location table.
	Trace = trace.Trace
	// Request is one content access.
	Request = trace.Request
	// ObjectID identifies a content object.
	ObjectID = cache.ObjectID
	// CacheKind selects an eviction policy (LRU, LFU, FIFO, SIEVE).
	CacheKind = cache.Kind
	// CacheConfig sizes per-satellite caches.
	CacheConfig = sim.CacheConfig
	// CachePolicy is a byte-capacity cache with pluggable eviction.
	CachePolicy = cache.Policy
	// Meter accumulates request/byte hit rates.
	Meter = cache.Meter
	// Policy is a satellite CDN content placement/fetch scheme.
	Policy = sim.Policy
	// Metrics aggregates a simulation run.
	Metrics = sim.Metrics
	// SimConfig controls a simulation run.
	SimConfig = sim.Config
	// LatencyModel composes end-to-end request latencies.
	LatencyModel = sim.LatencyModel
	// StarCDNOptions toggles hashing and relayed fetch (the ablations).
	StarCDNOptions = sim.StarCDNOptions
	// TrafficClass parameterises a workload class (video/web/download).
	TrafficClass = workload.Class
	// Models bundles SpaceGEN's fitted GPD and pFDs.
	Models = spacegen.Models
	// City is an evaluation location.
	City = geo.City
	// Point is a geodetic position.
	Point = geo.Point
	// GroundStation is a Starlink gateway location.
	GroundStation = geo.GroundStation
	// FailureEvent schedules a satellite outage during a simulation (§3.4).
	FailureEvent = sim.FailureEvent
	// ChaosOptions configures GenerateChaos failure schedules.
	ChaosOptions = sim.ChaosOptions
	// ReplayOptions configures the distributed TCP replayer, including the
	// fault policy and an optional §3.4 failure schedule.
	ReplayOptions = replayer.Options
	// FaultPolicy enables deadlines, bounded retries, and §3.4 degradation
	// in the TCP replayer.
	FaultPolicy = replayer.FaultPolicy
	// RetryPolicy bounds replay retry attempts and jittered backoff.
	RetryPolicy = replayer.RetryPolicy
	// FaultConfig sets deterministic fault-injection probabilities.
	FaultConfig = replayer.FaultConfig
	// FaultInjector injects seeded network faults into replay connections.
	FaultInjector = replayer.FaultInjector
	// FaultStats counts injected network faults.
	FaultStats = replayer.FaultStats
	// PrefetchStats accounts the §3.3 proactive-prefetch alternative.
	PrefetchStats = sim.PrefetchStats
	// TLE is a NORAD two-line element set (CelesTrak ingestion, §5.1).
	TLE = orbit.TLE
)

// Cache kinds.
const (
	LRU   = cache.LRU
	LFU   = cache.LFU
	FIFO  = cache.FIFO
	SIEVE = cache.SIEVE
)

// Source says where a request was served from (see Metrics.BySource).
type Source = sim.Source

// Request service sources.
const (
	SourceLocal     = sim.SourceLocal
	SourceBucket    = sim.SourceBucket
	SourceRelayWest = sim.SourceRelayWest
	SourceRelayEast = sim.SourceRelayEast
	SourceGround    = sim.SourceGround
	SourceNoCover   = sim.SourceNoCover
)

// Traffic classes (§5.1, §5.5).
var (
	VideoClass    = workload.Video
	WebClass      = workload.Web
	DownloadClass = workload.Download
)

// PaperCities returns the nine Akamai trace locations of §3.1.
func PaperCities() []City { return geo.PaperCities() }

// ExtendedCities returns a wider city set for larger simulations.
func ExtendedCities() []City { return geo.ExtendedCities() }

// DefaultShell returns the paper's 72×18 Starlink-53 Gen-1 shell.
func DefaultShell() ShellConfig { return orbit.DefaultStarlinkShell() }

// SystemOptions configures NewSystem.
type SystemOptions struct {
	// Shell is the constellation geometry; zero value selects DefaultShell.
	Shell ShellConfig
	// Buckets is the consistent hashing bucket count L (perfect square;
	// default 4).
	Buckets int
	// Outage deactivates this many satellites pseudo-randomly (paper: 126).
	Outage int
	// OutageSeed seeds the outage mask.
	OutageSeed int64
	// Cities are the evaluation locations; default PaperCities.
	Cities []City
}

// System wires a constellation, its ISL grid, and a hash scheme together
// with the evaluation cities.
type System struct {
	Constellation *Constellation
	Grid          *Grid
	Hash          *HashScheme
	Cities        []City
}

// NewSystem builds a ready-to-simulate system.
func NewSystem(opts SystemOptions) (*System, error) {
	shell := opts.Shell
	if shell.Planes == 0 {
		shell = DefaultShell()
	}
	c, err := orbit.New(shell)
	if err != nil {
		return nil, err
	}
	if opts.Outage > 0 {
		c.ApplyOutageMask(opts.Outage, opts.OutageSeed)
	}
	g := topo.NewGrid(c, topo.StarlinkTable1())
	buckets := opts.Buckets
	if buckets == 0 {
		buckets = 4
	}
	h, err := core.NewHashScheme(g, buckets)
	if err != nil {
		return nil, err
	}
	cities := opts.Cities
	if len(cities) == 0 {
		cities = geo.PaperCities()
	}
	return &System{Constellation: c, Grid: g, Hash: h, Cities: cities}, nil
}

// UserPoints returns the terminal positions of the system's cities, indexed
// like trace locations.
func (s *System) UserPoints() []Point {
	pts := make([]Point, len(s.Cities))
	for i, c := range s.Cities {
		pts[i] = c.Point
	}
	return pts
}

// StarCDN builds the full StarCDN policy (hashing + relayed fetch).
func (s *System) StarCDN(cfg CacheConfig) *sim.StarCDN {
	return sim.NewStarCDN(s.Hash, cfg, StarCDNOptions{Hashing: true, Relay: true})
}

// StarCDNVariant builds an ablation (hashing-only, relay-only, or neither).
func (s *System) StarCDNVariant(cfg CacheConfig, opts StarCDNOptions) *sim.StarCDN {
	return sim.NewStarCDN(s.Hash, cfg, opts)
}

// NaiveLRU builds the per-satellite independent-cache baseline.
func (s *System) NaiveLRU(cfg CacheConfig) Policy { return sim.NewNaiveLRU(cfg) }

// StaticCache builds the idealised no-motion baseline.
func (s *System) StaticCache(cfg CacheConfig) Policy { return sim.NewStaticCache(cfg) }

// GroundEdge builds the §7 intermediate design: edge caches co-located with
// ground stations (better QoE, no uplink savings).
func (s *System) GroundEdge(cfg CacheConfig, stations []GroundStation) (Policy, error) {
	if len(stations) == 0 {
		stations = geo.DefaultGroundStations()
	}
	return sim.NewGroundEdgeCDN(cfg, stations, s.UserPoints())
}

// FromTLESet builds a System whose constellation activity mask is
// reconstructed from NORAD element sets (the paper's CelesTrak pipeline).
func FromTLESet(tles []TLE, buckets int) (*System, error) {
	c, err := orbit.ReconstructShell(tles, orbit.DefaultStarlinkShell())
	if err != nil {
		return nil, err
	}
	g := topo.NewGrid(c, topo.StarlinkTable1())
	if buckets == 0 {
		buckets = 4
	}
	h, err := core.NewHashScheme(g, buckets)
	if err != nil {
		return nil, err
	}
	return &System{Constellation: c, Grid: g, Hash: h, Cities: geo.PaperCities()}, nil
}

// Simulate replays a trace through a policy over this system.
func (s *System) Simulate(tr *Trace, p Policy, cfg SimConfig) (*Metrics, error) {
	if len(tr.Locations) != len(s.Cities) {
		return nil, fmt.Errorf("starcdn: trace has %d locations but the system has %d cities",
			len(tr.Locations), len(s.Cities))
	}
	return sim.Run(s.Constellation, s.UserPoints(), tr, p, cfg)
}

// GenerateWorkload synthesises a production-like trace for a traffic class
// over the given cities (the Akamai-trace substitute, §3.1 statistics).
func GenerateWorkload(class TrafficClass, cities []City, seed int64, requests int, durationSec float64) (*Trace, error) {
	g, err := workload.NewGenerator(class, cities, seed)
	if err != nil {
		return nil, err
	}
	return g.Generate(requests, durationSec)
}

// FitModels derives SpaceGEN's GPD and pFD models from a production trace.
func FitModels(tr *Trace) (*Models, error) { return spacegen.Fit(tr) }

// GenerateSynthetic runs SpaceGEN's Algorithm 1 to emit a synthetic trace of
// the requested length from fitted models.
func GenerateSynthetic(models *Models, seed int64, requests int) (*Trace, error) {
	g, err := spacegen.NewGenerator(models, seed)
	if err != nil {
		return nil, err
	}
	return g.Generate(requests)
}

// ReplayTCP replays a trace through the distributed cache replayer: each
// satellite's cache runs behind its own loopback TCP endpoint and ISL fetches
// are real network round trips, mirroring the paper's multi-process replayer
// (§5.1). It returns the space-side hit meter.
func (s *System) ReplayTCP(tr *Trace, cfg CacheConfig, opts StarCDNOptions, seed int64) (Meter, error) {
	cluster, err := replayer.NewCluster(cfg.Kind, cfg.Bytes)
	if err != nil {
		return Meter{}, err
	}
	defer cluster.Close()
	return replayer.Replay(s.Hash, cluster, s.UserPoints(), tr, replayer.Options{
		Hashing: opts.Hashing,
		Relay:   opts.Relay,
		Seed:    seed,
	})
}

// NewFaultInjector builds a deterministic network-fault injector for the TCP
// replayer; the same seed reproduces the same per-connection fault stream.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return replayer.NewFaultInjector(cfg)
}

// GenerateChaos builds a deterministic §3.4 failure schedule over candidate
// satellites — the same candidates, options, and seed always yield a
// byte-identical schedule, so chaos runs are replayable and can be
// cross-checked between Simulate and ReplayTCPOpts.
func GenerateChaos(candidates []SatID, o ChaosOptions) []FailureEvent {
	return sim.GenerateChaos(candidates, o)
}

// ReplayTCPOpts is the fully configurable distributed replay: fault policy
// (deadlines, retries, §3.4 degrade-to-ground), an optional failure schedule
// that kills and revives cache servers mid-replay, and a concurrent mode
// that keeps many requests in flight, pipelined to each server in request
// order, with the sequential replay's result. A non-empty
// ReplayOptions.Failures requires ReplayOptions.Fault.
//
// Failure schedules mutate the system's constellation availability as they
// apply, exactly as Simulate does with SimConfig.Failures — reuse one System
// per chaos run (or rebuild it) rather than replaying twice over the same
// partially-failed constellation.
func (s *System) ReplayTCPOpts(tr *Trace, cfg CacheConfig, opts ReplayOptions, concurrent bool) (Meter, error) {
	cluster, err := replayer.NewCluster(cfg.Kind, cfg.Bytes)
	if err != nil {
		return Meter{}, err
	}
	defer func() { _ = cluster.Close() }()
	if concurrent {
		return replayer.ReplayConcurrent(s.Hash, cluster, s.UserPoints(), tr, opts)
	}
	return replayer.Replay(s.Hash, cluster, s.UserPoints(), tr, opts)
}

// GenerateMixedWorkload synthesises a multi-class trace (web + video +
// download sharing the satellite caches); workload.DefaultMix provides the
// standard blend. Use ClassOfObject to attribute objects back to classes.
func GenerateMixedWorkload(mixes []WorkloadMix, cities []City, seed int64, requests int, durationSec float64) (*Trace, error) {
	return workload.GenerateMixed(mixes, cities, seed, requests, durationSec)
}

// WorkloadMix is one component of a mixed-class workload.
type WorkloadMix = workload.Mix

// DefaultWorkloadMix returns the standard web/video/download blend.
func DefaultWorkloadMix() []WorkloadMix { return workload.DefaultMix() }

// ClassOfObject recovers the mix index of an object in a mixed trace.
func ClassOfObject(obj ObjectID) int { return workload.ClassOf(obj) }

// SampleTrace keeps a rate-sized fraction of the trace's objects (with all
// their requests), the paper's §3.1 by-object subsampling.
func SampleTrace(tr *Trace, rate float64, seed int64) (*Trace, error) {
	return trace.Sample(tr, rate, seed)
}

// SessionStats aggregates a direct-to-cell session-state simulation (§7).
type SessionStats = session.Stats

// SessionStrategy selects a state-anchoring design.
type SessionStrategy = session.Strategy

// Session anchoring strategies.
const (
	SessionFollowSatellite = session.FollowSatellite
	SessionGroundAnchor    = session.GroundAnchor
	SessionBucketAnchor    = session.BucketAnchor
)

// SimulateSessions runs the §7 direct-to-cell state-anchoring simulation for
// this system's cities.
func (s *System) SimulateSessions(strategy SessionStrategy, stateBytes int64, durationSec float64, seed int64) (*SessionStats, error) {
	return session.Run(s.Hash, s.UserPoints(), session.Config{
		Strategy:    strategy,
		StateBytes:  stateBytes,
		DurationSec: durationSec,
		Seed:        seed,
	})
}
