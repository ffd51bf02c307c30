// Package experiments regenerates every table and figure of the paper's
// evaluation (§3.1, §4.3, §5). Each experiment returns a text report that
// prints the measured series next to the values the paper reports, so the
// shape claims (scheme ordering, StarCDN-vs-LRU gap, uplink savings, latency
// improvement, west-relay dominance, failure degradation) can be checked at
// a glance. The same functions back the bench harness (bench_test.go) and
// the starcdn-sim binary.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/shed"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// Scale parameterises experiment size. The paper's full runs use 5-day
// traces with 2 B requests and 10-100 GB caches; Small keeps the same shape
// at laptop scale by shrinking the trace and the caches together, following
// the paper's own 1 %-sampling methodology (§5.2).
type Scale struct {
	Requests    int     // trace length (requests)
	DurationSec float64 // trace span
	Objects     int     // catalogue size per class
	// CacheSizes are the per-satellite cache capacities swept in the hit
	// rate figures (smallest..largest, the "10-100 GB" axis).
	CacheSizes []int64
	// LatencyCacheSize is the capacity used for latency/fault experiments
	// (the paper uses 50 GB / 256-entry equivalents).
	LatencyCacheSize int64
	Seed             int64
}

// Small returns the default laptop-scale configuration used by the benches.
func Small() Scale {
	return Scale{
		Requests:    150_000,
		DurationSec: 3 * 3600,
		Objects:     8000,
		CacheSizes: []int64{
			32 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20,
		},
		LatencyCacheSize: 256 << 20,
		Seed:             42,
	}
}

// Medium returns a larger configuration for overnight runs.
func Medium() Scale {
	s := Small()
	s.Requests = 1_500_000
	s.DurationSec = 24 * 3600
	s.Objects = 60_000
	s.CacheSizes = []int64{
		256 << 20, 512 << 20, 1 << 30, 2 << 30, 4 << 30,
	}
	s.LatencyCacheSize = 2 << 30
	return s
}

// Env caches the expensive shared fixtures (constellation, traces) across
// experiments at one scale.
type Env struct {
	Scale  Scale
	Cities []geo.City

	// Obs, when non-nil, is threaded into every simulation run as
	// sim.Config.Metrics so a live /metrics endpoint can watch experiment
	// progress. Tracer likewise samples request-path spans. Neither alters
	// results (obs instruments are write-only side channels off the seeded
	// RNG streams), but note that memoised cache hits in runScheme skip
	// re-simulation and therefore do not re-emit metrics or spans.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	// Recorder, when non-nil, ticks on simulated time through every run, each
	// run after the last (sim.Config.Recorder), turning Obs into a
	// flight-recorder time series.
	Recorder *obs.Recorder
	// Phases, when non-nil, attributes every run's hot-path wall-clock cost
	// to the sim pipeline stages (sim.Config.Phases; build with
	// obs.NewSimPhases). Like Obs/Tracer it cannot alter results — reports
	// are byte-identical with phases on or off.
	Phases *obs.PhaseProfiler
	// ShedConfig, when non-nil, wires a fresh overload controller into every
	// simulation run (sim.Config.Shedder). Fresh per run: the controller's
	// stage machine and session table are stateful, and sharing one across
	// runs would leak burn history between experiments. Unlike Obs/Tracer
	// this CAN alter results (that is its purpose), so shed runs are never
	// memoised.
	ShedConfig *shed.Config

	mu     sync.Mutex
	consts map[string]*orbit.Constellation
	traces map[string]*trace.Trace
	runs   map[string]*sim.Metrics
}

// NewEnv creates an experiment environment at the given scale over the
// paper's nine cities.
func NewEnv(s Scale) *Env {
	return &Env{
		Scale:  s,
		Cities: geo.PaperCities(),
		consts: make(map[string]*orbit.Constellation),
		traces: make(map[string]*trace.Trace),
		runs:   make(map[string]*sim.Metrics),
	}
}

// Constellation returns a cached constellation. Separate keys give
// experiments independent activity masks.
func (e *Env) Constellation(key string) *orbit.Constellation {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.consts[key]
	if !ok {
		c = orbit.MustNew(orbit.DefaultStarlinkShell())
		e.consts[key] = c
	}
	return c
}

// class returns the scaled traffic class parameters.
func (e *Env) class(name string) (workload.Class, error) {
	cls, err := workload.ClassByName(name)
	if err != nil {
		return cls, err
	}
	cls.NumObjects = e.Scale.Objects
	// At reduced scale, trim the extreme size tail so byte-weighted metrics
	// aren't dominated by a handful of giant objects.
	if cls.MaxSizeBytes > 64<<20 {
		cls.MaxSizeBytes = 64 << 20
	}
	return cls, nil
}

// ProductionTrace returns the cached workload ("production") trace for a
// traffic class.
func (e *Env) ProductionTrace(className string) (*trace.Trace, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tr, ok := e.traces[className]; ok {
		return tr, nil
	}
	cls, err := e.class(className)
	if err != nil {
		return nil, err
	}
	g, err := workload.NewGenerator(cls, e.Cities, e.Scale.Seed)
	if err != nil {
		return nil, err
	}
	tr, err := g.Generate(e.Scale.Requests, e.Scale.DurationSec)
	if err != nil {
		return nil, err
	}
	e.traces[className] = tr
	return tr, nil
}

// Users returns the user terminal positions aligned with trace locations.
func (e *Env) Users() []geo.Point {
	pts := make([]geo.Point, len(e.Cities))
	for i, c := range e.Cities {
		pts[i] = c.Point
	}
	return pts
}

// grid builds a fresh grid over a constellation.
func (e *Env) grid(key string) *topo.Grid {
	return topo.NewGrid(e.Constellation(key), topo.StarlinkTable1())
}

// runScheme replays tr through a named scheme with the given cache size and
// bucket count, returning the metrics. Results for the plain-metrics config
// (no latency/per-satellite collection) are memoised per environment so that
// figures sharing cells don't re-simulate.
func (e *Env) runScheme(constKey, scheme string, l int, cacheBytes int64, tr *trace.Trace, cfg sim.Config) (*sim.Metrics, error) {
	memoizable := !cfg.CollectLatency && !cfg.CollectPerSat && e.ShedConfig == nil
	key := fmt.Sprintf("%s|%s|%d|%d|%p|%d", constKey, scheme, l, cacheBytes, tr, cfg.Seed)
	if memoizable {
		e.mu.Lock()
		m, ok := e.runs[key]
		e.mu.Unlock()
		if ok {
			return m, nil
		}
	}
	m, err := e.runSchemeUncached(constKey, scheme, l, cacheBytes, tr, cfg)
	if err != nil {
		return nil, err
	}
	if memoizable {
		e.mu.Lock()
		e.runs[key] = m
		e.mu.Unlock()
	}
	return m, nil
}

func (e *Env) runSchemeUncached(constKey, scheme string, l int, cacheBytes int64, tr *trace.Trace, cfg sim.Config) (*sim.Metrics, error) {
	c := e.Constellation(constKey)
	g := e.grid(constKey)
	cacheCfg := sim.CacheConfig{Kind: cache.LRU, Bytes: cacheBytes}
	var p sim.Policy
	switch scheme {
	case "lru":
		p = sim.NewNaiveLRU(cacheCfg)
	case "static":
		p = sim.NewStaticCache(cacheCfg)
	case "starcdn", "starcdn-fetch", "starcdn-hashing":
		h, err := core.NewHashScheme(g, l)
		if err != nil {
			return nil, err
		}
		opts := sim.StarCDNOptions{}
		switch scheme {
		case "starcdn":
			opts = sim.StarCDNOptions{Hashing: true, Relay: true}
		case "starcdn-fetch":
			opts = sim.StarCDNOptions{Hashing: true}
		case "starcdn-hashing":
			opts = sim.StarCDNOptions{Relay: true}
		}
		p = sim.NewStarCDN(h, cacheCfg, opts)
	case "no-cache":
		p = sim.NoCacheBentPipe{}
	case "terrestrial":
		p = sim.TerrestrialCDN{}
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
	cfg.Metrics = e.Obs
	cfg.Tracer = e.Tracer
	cfg.Recorder = e.Recorder
	cfg.Phases = e.Phases
	if e.ShedConfig != nil {
		shedCfg := *e.ShedConfig
		shedCfg.Metrics = e.Obs
		ctrl, err := shed.NewController(shedCfg)
		if err != nil {
			return nil, err
		}
		cfg.Shedder = ctrl
	}
	return sim.Run(c, e.Users(), tr, p, cfg)
}

// report builds the standard report header.
func report(title, paperClaim string) *strings.Builder {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	if paperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", paperClaim)
	}
	return &b
}

// gb formats a byte count as fractional MB/GB for axis labels.
func gb(bytes int64) string {
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(bytes)/float64(1<<30))
	default:
		return fmt.Sprintf("%.0fMB", float64(bytes)/float64(1<<20))
	}
}
