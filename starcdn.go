// Package starcdn is the public API of the StarCDN reproduction: a
// satellite-based content delivery network with LSN-specific consistent
// hashing and relayed fetch (Zheng et al., SIGCOMM 2025), together with the
// SpaceGEN synthetic trace generator and a trace-driven constellation
// simulator.
//
// The package exports what its Example calls: the paper's evaluation
// pipeline, from a production-like trace through SpaceGEN to a simulation
// of StarCDN against a naive per-satellite LRU.
package starcdn

import (
	"fmt"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/sim"
	"starcdn/internal/spacegen"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// Types named by the API.
type (
	// Trace is a time-ordered request trace with a location table.
	Trace = trace.Trace
	// CacheConfig sizes per-satellite caches.
	CacheConfig = sim.CacheConfig
	// Policy is a satellite CDN content placement/fetch scheme.
	Policy = sim.Policy
	// Metrics aggregates a simulation run.
	Metrics = sim.Metrics
	// SimConfig controls a simulation run.
	SimConfig = sim.Config
	// TrafficClass parameterises a workload class (video/web/download).
	TrafficClass = workload.Class
	// Models bundles SpaceGEN's fitted GPD and pFDs.
	Models = spacegen.Models
	// City is an evaluation location.
	City = geo.City
)

// LRU selects least-recently-used eviction for CacheConfig.Kind.
const LRU = cache.LRU

// VideoClass returns the video traffic class of the paper's evaluation (§5.1).
func VideoClass() TrafficClass { return workload.Video() }

// SystemOptions configures NewSystem.
type SystemOptions struct {
	// Buckets is the consistent hashing bucket count L (perfect square;
	// default 4).
	Buckets int
	// Outage deactivates this many satellites pseudo-randomly (paper: 126).
	Outage int
	// OutageSeed seeds the outage mask.
	OutageSeed int64
}

// System wires the paper's 72×18 Starlink-53 Gen-1 shell, its ISL grid and a
// hash scheme together with the nine Akamai trace cities of §3.1.
type System struct {
	// Cities are the evaluation locations, indexed like trace locations.
	Cities []City

	constellation *orbit.Constellation
	hash          *core.HashScheme
}

// NewSystem builds a ready-to-simulate system.
func NewSystem(opts SystemOptions) (*System, error) {
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		return nil, err
	}
	if opts.Outage > 0 {
		c.ApplyOutageMask(opts.Outage, opts.OutageSeed)
	}
	buckets := opts.Buckets
	if buckets == 0 {
		buckets = 4
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), buckets)
	if err != nil {
		return nil, err
	}
	return &System{Cities: geo.PaperCities(), constellation: c, hash: h}, nil
}

// userPoints returns the terminal positions of the system's cities, indexed
// like trace locations.
func (s *System) userPoints() []geo.Point {
	pts := make([]geo.Point, len(s.Cities))
	for i, c := range s.Cities {
		pts[i] = c.Point
	}
	return pts
}

// StarCDN builds the full StarCDN policy (hashing + relayed fetch).
func (s *System) StarCDN(cfg CacheConfig) *sim.StarCDN {
	return sim.NewStarCDN(s.hash, cfg, sim.StarCDNOptions{Hashing: true, Relay: true})
}

// NaiveLRU builds the per-satellite independent-cache baseline.
func (s *System) NaiveLRU(cfg CacheConfig) Policy { return sim.NewNaiveLRU(cfg) }

// Simulate replays a trace through a policy over this system.
func (s *System) Simulate(tr *Trace, p Policy, cfg SimConfig) (*Metrics, error) {
	if len(tr.Locations) != len(s.Cities) {
		return nil, fmt.Errorf("starcdn: trace has %d locations but the system has %d cities",
			len(tr.Locations), len(s.Cities))
	}
	return sim.Run(s.constellation, s.userPoints(), tr, p, cfg)
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
