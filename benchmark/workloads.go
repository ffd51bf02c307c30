package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/replayer"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// program is what a workload hands its trace to.
type program int

const (
	progSim        program = iota // sim.Run, one process, no network
	progReplaySeq                 // replayer.Replay over a loopback cluster, one client
	progReplayConc                // replayer.ReplayConcurrent, one client per city
)

// spec is one named workload. Every workload runs the default Starlink shell
// with the 126-satellite outage mask, L=4 buckets, LRU caches and
// hashing+relay; the fields below are all that differs between them.
type spec struct {
	Name        string
	Why         string
	Class       string // workload traffic class
	Requests    int
	DurationSec float64
	Objects     int
	CacheBytes  int64
	Cities      int // first n of geo.PaperCities
	Program     program
	// Obs switches the full observability stack on (sim workloads only).
	Obs bool
	// HitRateTol is how far the program's request hit rate may sit from the
	// sequential reference; 0 demands a hit-for-hit match.
	HitRateTol float64
}

const (
	outageSats = 126
	buckets    = 4
	// catalogueSeed fixes each workload's content catalogue: which objects
	// exist, their sizes, popularity and home cities. It is part of the
	// workload, as the catalogue size is. --seed draws who requests what from
	// it, takes satellites out of service and drives the link scheduler and
	// the latency model. (A catalogue per seed moves the byte hit rate of an
	// 8,000-object heavy-tailed catalogue by tens of percent, which would bury
	// any change to the program.) 42 is the seed of experiments.Small, so the
	// sparse pool is the trace BenchmarkSimHotPath runs.
	catalogueSeed = 42
	// replayPrefix bounds the requests a sim workload's traced run sends
	// through the replayer, and the round trips the replayer driver times.
	replayPrefix = 20_000
)

var specs = []spec{
	{
		Name: "sim_sparse_video", Class: "video", Program: progSim,
		Requests: 150_000, DurationSec: 10_800, Objects: 8000, CacheBytes: 256 << 20, Cities: 9,
		Why: "The paper-shaped trace every figure pays for: 720 scheduler epochs over 150k requests, so orbit and sched do most of the work and core and cache little.",
	},
	{
		Name: "sim_dense_hits", Class: "video", Program: progSim,
		Requests: 1_000_000, DurationSec: 300, Objects: 8000, CacheBytes: 256 << 20, Cities: 9,
		Why: "20 epochs over 1M requests at a high hit rate, so sched is small and core, cache Get hits and the sim latency model and meters do the work.",
	},
	{
		Name: "sim_dense_churn", Class: "download", Program: progSim,
		Requests: 1_000_000, DurationSec: 300, Objects: 8000, CacheBytes: 64 << 20, Cities: 9,
		Why: "The dense trace at a low hit rate: Admit, evict, two relay Contains probes and the ground path on most requests, so a read-path gain that costs the write path shows.",
	},
	{
		Name: "sim_dense_obs", Class: "video", Program: progSim, Obs: true,
		Requests: 1_000_000, DurationSec: 300, Objects: 8000, CacheBytes: 256 << 20, Cities: 9,
		Why: "The sim_dense_hits inputs with Metrics, Sketches, Recorder and Phases on: the only workload the obs seam may move.",
	},
	{
		Name: "replay_seq_hits", Class: "video", Program: progReplaySeq,
		Requests: 100_000, DurationSec: 600, Objects: 4000, CacheBytes: 128 << 20, Cities: 9,
		Why: "One client replays over TCP to a pre-started loopback cluster: client, protocol and server round trips do the work, sched little and sim none.",
	},
	{
		Name: "replay_conc_churn", Class: "download", Program: progReplayConc, HitRateTol: 0.005,
		Requests: 60_000, DurationSec: 600, Objects: 4000, CacheBytes: 32 << 20, Cities: 2,
		Why: "Two concurrent clients at a low hit rate with deadline-armed frames: Contains and Admit frames, the precompute and worker driver, per-address client locks and per-cache server locks.",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything generated from the seed. The program under test
// receives the trace; the constellation, grid and hash are the system it runs
// on. Runs without a failure schedule mutate none of them, so iterations
// share one set.
type inputs struct {
	spec  spec
	seed  int64
	tr    *trace.Trace
	c     *orbit.Constellation
	h     *core.HashScheme
	users []geo.Point
}

// setup generates the workload's inputs from the seed.
func (s spec) setup(seed int64, t *tracer) (*inputs, error) {
	cls, err := workload.ClassByName(s.Class)
	if err != nil {
		return nil, err
	}
	cls.NumObjects = s.Objects
	// As experiments.Env does at reduced scale: trim the size tail so a
	// handful of giant objects does not dominate the byte metrics.
	if cls.MaxSizeBytes > 64<<20 {
		cls.MaxSizeBytes = 64 << 20
	}
	cities := geo.PaperCities()[:s.Cities]
	in := &inputs{spec: s, seed: seed, users: make([]geo.Point, len(cities))}
	for i, city := range cities {
		in.users[i] = city.Point
	}

	id := t.begin("workload.Generate")
	g, err := workload.NewGenerator(cls, cities, catalogueSeed)
	if err == nil {
		var pool *trace.Trace
		if pool, err = g.Generate(s.Requests, s.DurationSec); err == nil {
			in.tr = resample(pool, seed)
		}
	}
	t.end(id)
	if err != nil {
		return nil, err
	}

	id = t.begin("trace.Validate")
	err = in.tr.Validate()
	t.end(id)
	if err != nil {
		return nil, err
	}

	id = t.begin("orbit.New")
	in.c, err = orbit.New(orbit.DefaultStarlinkShell())
	if err == nil {
		in.c.ApplyOutageMask(outageSats, seed)
	}
	t.end(id)
	if err != nil {
		return nil, err
	}

	id = t.begin("core.NewHashScheme")
	in.h, err = core.NewHashScheme(topo.NewGrid(in.c, topo.StarlinkTable1()), buckets)
	t.end(id)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// resample draws the seed's trace from the pool. Every request keeps its time
// and city and takes the object of a request drawn, by the seed, from the
// same city's requests in the pool. The generator draws a city's objects
// independently from a fixed popularity, so this is a fresh draw from that
// popularity as the pool records it.
func resample(pool *trace.Trace, seed int64) *trace.Trace {
	byCity := make([][]int32, len(pool.Locations))
	for i, r := range pool.Requests {
		byCity[r.Location] = append(byCity[r.Location], int32(i))
	}
	rng := rand.New(rand.NewSource(seed))
	out := &trace.Trace{Locations: pool.Locations, Requests: make([]trace.Request, len(pool.Requests))}
	for i, r := range pool.Requests {
		from := byCity[r.Location]
		drawn := pool.Requests[from[rng.Intn(len(from))]]
		r.Object, r.Size = drawn.Object, drawn.Size
		out.Requests[i] = r
	}
	return out
}

// prefix returns the inputs cut to the first n requests of the trace.
func (in *inputs) prefix(n int) *inputs {
	if n >= len(in.tr.Requests) {
		return in
	}
	cut := *in
	cut.tr = &trace.Trace{Locations: in.tr.Locations, Requests: in.tr.Requests[:n]}
	return &cut
}

func (in *inputs) requests() int { return len(in.tr.Requests) }

// startCluster starts a cache server for every active satellite, so that no
// server start lands inside a timed replay.
func (in *inputs) startCluster(t *tracer) (*replayer.Cluster, error) {
	id := t.begin("replayer.NewCluster")
	cl, err := replayer.NewCluster(cache.LRU, in.spec.CacheBytes)
	t.end(id)
	if err != nil {
		return nil, err
	}
	for i := 0; i < in.c.NumSlots(); i++ {
		sat := orbit.SatID(i)
		if !in.c.Active(sat) {
			continue
		}
		id := t.begin("replayer.Cluster.Addr")
		_, err := cl.Addr(sat)
		t.end(id)
		if err != nil {
			_ = cl.Close() // the start error is the one to report
			return nil, err
		}
	}
	return cl, nil
}

// closeCluster stops every server and waits for its goroutines.
func closeCluster(cl *replayer.Cluster, t *tracer) error {
	id := t.begin("replayer.Cluster.Close")
	err := cl.Close()
	t.end(id)
	return err
}

// outcome is what one pass of a trace through the decision pipeline
// produced. It is comparable, so equal outcomes are one == away.
type outcome struct {
	Requests    int64    `json:"requests"`
	Hits        int64    `json:"hits"`
	BytesTotal  int64    `json:"bytes_total"`
	BytesHit    int64    `json:"bytes_hit"`
	UplinkBytes int64    `json:"uplink_bytes"`
	ISLByteHops int64    `json:"isl_byte_hops"`
	BySource    [6]int64 `json:"by_source"` // indexed by sourceNames
	LatencyN    int      `json:"latency_samples"`
	LatencyP50  float64  `json:"latency_p50_ms"`
	LatencyP99  float64  `json:"latency_p99_ms"`
}

// sourceNames are the per-source metric suffixes, indexed by sim.Source.
var sourceNames = [6]string{"local", "bucket", "relay-west", "relay-east", "ground", "no-cover"}

func (o outcome) hitRate() float64        { return float64(o.Hits) / float64(o.Requests) }
func (o outcome) uplinkFraction() float64 { return float64(o.UplinkBytes) / float64(o.BytesTotal) }

func (o outcome) bySourceTotal() int64 {
	var n int64
	for _, c := range o.BySource {
		n += c
	}
	return n
}

func outcomeOf(m *sim.Metrics) outcome {
	o := outcome{
		Requests: m.Meter.Requests, Hits: m.Meter.Hits,
		BytesTotal: m.Meter.BytesTotal, BytesHit: m.Meter.BytesHit,
		UplinkBytes: m.UplinkBytes, ISLByteHops: m.ISLBytes,
		LatencyN:   m.Latency.N(),
		LatencyP50: m.Latency.Quantile(0.5), LatencyP99: m.Latency.Quantile(0.99),
	}
	for src, n := range m.BySource {
		// No workload arms the shed controller or a ground edge, so a count
		// outside the six sources would be a bug; it then goes missing from
		// the by-source total and fails that check.
		if int(src) < len(o.BySource) {
			o.BySource[src] = n
		}
	}
	return o
}

// simConfig is the sim.Config the workload runs under. With withObs it
// carries the full observability stack of sim_dense_obs.
func (in *inputs) simConfig(withObs bool) sim.Config {
	cfg := sim.Config{Seed: in.seed, CollectLatency: true}
	if withObs {
		reg := obs.NewRegistry()
		rec := obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: 15, Capacity: 1024})
		ph := obs.NewSimPhases(reg)
		ph.BindRecorder(rec)
		cfg.Metrics, cfg.Sketches, cfg.Recorder, cfg.Phases = reg, true, rec, ph
	}
	return cfg
}

// cost is what one timed call took: wall time, and the allocations and
// collections the process made meanwhile.
type cost struct {
	wall       float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// measure times f. The memory statistics are read outside the timed region.
func measure(f func()) cost {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return cost{
		wall:       wall,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// runSim passes the trace through sim.Run with fresh caches and returns the
// cost of that call alone.
func (in *inputs) runSim(cfg sim.Config, t *tracer) (*sim.Metrics, cost, error) {
	p := sim.NewStarCDN(in.h, sim.CacheConfig{Kind: cache.LRU, Bytes: in.spec.CacheBytes},
		sim.StarCDNOptions{Hashing: true, Relay: true})
	var m *sim.Metrics
	var err error
	c := measure(func() {
		id := t.begin("sim.Run")
		m, err = sim.Run(in.c, in.users, in.tr, p, cfg)
		t.end(id)
	})
	return m, c, err
}

// runReplay starts a fresh cluster, replays the trace over it with the
// workload's driver, and stops the cluster. Only the replay call is measured.
func (in *inputs) runReplay(opts replayer.Options, t *tracer) (cache.Meter, cost, error) {
	cl, err := in.startCluster(t)
	if err != nil {
		return cache.Meter{}, cost{}, err
	}
	opts.Hashing, opts.Relay, opts.Seed = true, true, in.seed
	replay, name := replayer.Replay, "replayer.Replay"
	if in.spec.Program == progReplayConc {
		replay, name = replayer.ReplayConcurrent, "replayer.ReplayConcurrent"
		// Deadline-armed frames; on a healthy loopback the retries stay idle.
		opts.Fault = &replayer.FaultPolicy{}
	}
	var meter cache.Meter
	c := measure(func() {
		id := t.begin(name)
		meter, err = replay(in.h, cl, in.users, in.tr, opts)
		t.end(id)
	})
	if cerr := closeCluster(cl, t); err == nil && cerr != nil {
		err = fmt.Errorf("cluster close: %w", cerr)
	}
	return meter, c, err
}
